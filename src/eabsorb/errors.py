"""Exception types shared across the toolkit, and the one set of value checks
(positive or non-negative numbers and integers, nonzero numbers, frequency
arrays) that the config reader and every library type make.  A checked
number is kept as the Python float its check returns, so a `numpy.float32`
parameter computes in float64; a checked count keeps the integer given."""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "DiscretizationError", "DivergenceError", "EabsorbError", "IdentificationError",
    "InvalidParameterError", "SynthesisError",
]


class EabsorbError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(EabsorbError, ValueError):
    """A parameter or config value is out of its valid range."""


class SynthesisError(EabsorbError):
    """Controller synthesis failed (e.g. inadmissible target impedance)."""


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


def as_float(x) -> float:
    """`x` as a float: NaN for a bool, a value that is not a real number or
    an integer beyond float range, so that a finiteness check refuses all
    three."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.nan


def check_number(x, name: str, allow_zero: bool = False) -> float:
    """`x` as a float that is finite and positive (or zero, with
    allow_zero), else an InvalidParameterError naming `name`; bools, values
    that are not real numbers and integers beyond float range are refused."""
    f = as_float(x)
    if not (f < math.inf and (f > 0.0 or (allow_zero and f == 0.0))):  # NaN fails both
        bound = "a non-negative" if allow_zero else "a positive"
        raise InvalidParameterError(f"{name} must be {bound} number, got {x!r}")
    return f


def check_count(x, name: str, allow_zero: bool = False):
    """`x`, an int or numpy integer (not a bool) that is positive (or zero,
    with allow_zero), else an InvalidParameterError naming `name`; floats,
    integral or not, are refused."""
    integer = isinstance(x, numbers.Integral) and not isinstance(x, bool)
    if not (integer and x >= (0 if allow_zero else 1)):
        bound = "a non-negative" if allow_zero else "a positive"
        raise InvalidParameterError(f"{name} must be {bound} integer, got {x!r}")
    return x


def check_positive(obj, *names: str, allow_zero: bool = False) -> None:
    """`check_number` on each named field of the frozen dataclass `obj`,
    which then holds the Python float the check returns."""
    for name in names:
        object.__setattr__(obj, name, check_number(getattr(obj, name), name, allow_zero))


def check_nonzero(x, name: str) -> float:
    """`x` as a float that is finite and nonzero, else an
    InvalidParameterError naming `name`; bools and values that are not real
    numbers are refused."""
    f = as_float(x)
    if not (math.isfinite(f) and f != 0.0):
        raise InvalidParameterError(f"{name} must be finite and nonzero, got {x!r}")
    return f


def check_frequencies(f_hz, name: str = "f_hz") -> np.ndarray:
    """`f_hz` as a new float array; every entry must be a positive and
    finite real number, by `as_float`'s rule (so not a bool or a string),
    else an InvalidParameterError names the parameter `name`.  A float or
    an array of real dtype is converted by numpy alone, anything else entry
    by entry."""
    if isinstance(f_hz, float) or (isinstance(f_hz, np.ndarray) and f_hz.dtype.kind in "fiu"):
        entries = f = np.array(f_hz, dtype=float)
    else:
        entries = np.array(f_hz, dtype=object)
        f = np.array([as_float(x) for x in entries.flat], dtype=float).reshape(entries.shape)
    ok = (f > 0.0) & (f < math.inf)  # NaN fails both
    if not ok.all():
        bad = entries[~ok].tolist()[0]
        raise InvalidParameterError(f"{name} must be positive and finite, got {bad!r}")
    return f
