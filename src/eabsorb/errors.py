"""Exception types shared across the toolkit, and the positivity, nonzero,
integer, frequency, seed and spread checks of parameter fields."""

from __future__ import annotations

import math
import numbers

import numpy as np


class EabsorbError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(EabsorbError, ValueError):
    """A physical parameter is out of its valid range."""


class SynthesisError(EabsorbError):
    """Controller synthesis failed (e.g. inadmissible target impedance)."""


class SingularDesignError(EabsorbError):
    """A circuit design hits a singular operating condition."""


class IdentificationError(EabsorbError):
    """Parameter identification could not be carried out."""


class DiscretizationError(EabsorbError):
    """A continuous-time transfer cannot be realized at the given rate."""


class DivergenceError(EabsorbError):
    """The closed loop diverged in simulation (time_s says when) or is
    unstable and has no steady state (time_s is None)."""

    def __init__(self, message: str, time_s: float | None):
        super().__init__(message)
        self.time_s = time_s


def check_positive(obj, *names: str, allow_zero: bool = False) -> None:
    """Raise InvalidParameterError unless each named field of `obj` is a real
    number (not a bool), finite and above zero (or zero, with allow_zero);
    NaN would pass `x <= 0`."""
    for name in names:
        x = getattr(obj, name)
        if not (is_real(x) and math.isfinite(x) and (x > 0 or (allow_zero and x == 0))):
            bound = "non-negative" if allow_zero else "strictly positive"
            raise InvalidParameterError(f"{name} must be {bound} and finite, got {x!r}")


def is_integer(x) -> bool:
    """True for an int or a numpy integer, but not for a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_real(x) -> bool:
    """True for a real number (int, float or their numpy kinds), but not
    for a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def check_nonzero(x, name: str) -> None:
    """Raise InvalidParameterError unless `x` is a finite nonzero real
    number (not a bool)."""
    if not (is_real(x) and math.isfinite(x) and x != 0):
        raise InvalidParameterError(f"{name} must be finite and nonzero, got {x!r}")


def check_seed(seed) -> None:
    """Raise InvalidParameterError unless `seed` is a non-negative integer."""
    if not is_integer(seed) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")


def check_rel_std(rel_std) -> float:
    """`rel_std` as a float; it must be a real number (not a bool),
    non-negative and finite."""
    # a NaN fails both comparisons
    if not (is_real(rel_std) and 0.0 <= rel_std < math.inf):
        raise InvalidParameterError(
            f"rel_std must be a non-negative finite number, got {rel_std!r}"
        )
    return float(rel_std)


def check_frequencies(f_hz, name: str = "f_hz") -> np.ndarray:
    """`f_hz` as a float array; every entry must be positive and finite,
    else an InvalidParameterError names the parameter `name`."""
    f = np.asarray(f_hz, dtype=float)
    ok = (f > 0.0) & (f < math.inf)  # NaN fails both
    if not ok.all():
        bad = float(f[~ok].flat[0])
        raise InvalidParameterError(f"{name} must be positive and finite, got {bad!r}")
    return f
