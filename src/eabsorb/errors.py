"""Exception types shared across the toolkit, and its one entry rule: every
number and sample array it takes is converted and refused by `check_reals`,
whose masks are the checks of numbers, nonzero numbers and frequencies (not
counts, which are not converted).  A checked array is a read-only copy, and a
checked number the Python float its check returns, so a `numpy.float32`
parameter computes in float64."""

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


def as_float(x, dtype=float):
    """`x` as a float, or for `dtype` complex each part of it as one: NaN for
    a bool, a value that is not a number (for float, a real number) or an
    integer beyond float range, so that a finiteness check refuses all three."""
    if dtype is complex and isinstance(x, numbers.Complex) and not isinstance(x, bool):
        return complex(as_float(x.real), as_float(x.imag))
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.nan


def _check_one(x, ok, rule: str) -> float:
    """`x` as a float by `check_reals`, held whole in a 0-d object array: a
    list or an array is one entry, NaN to `ok` and shown as given."""
    one = np.empty((), dtype=object)
    one[()] = x
    return float(check_reals(one, ok, rule))


def check_number(x, name: str, allow_zero: bool = False) -> float:
    """`x` as a float that is finite and positive (or zero, with
    allow_zero), else an InvalidParameterError naming `name`; bools, values
    that are not real numbers and integers beyond float range are refused."""
    bound, low = ("a non-negative", np.greater_equal) if allow_zero else ("a positive", np.greater)
    return _check_one(x, lambda f: (f < math.inf) & low(f, 0.0), f"{name} must be {bound} number")


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
    rule = f"{name} must be finite and nonzero"
    return _check_one(x, lambda f: np.isfinite(f) & (f != 0.0), rule)


def check_reals(x, ok, rule: str, dtype=float) -> np.ndarray:
    """`x` as a new read-only array of `dtype`, float or complex, entry by
    entry by `as_float`'s rule (a `dtype` scalar or an array of real dtype,
    or for complex of numeric dtype, by numpy alone), so the caller's later
    writes cannot undo a check; the first entry where the mask `ok(array)` is
    false raises InvalidParameterError("`rule`, got <entry>").  A NaN fails
    `ok`, so a bool, a string or None never passes."""
    kinds = "fiu" if dtype is float else "fiuc"
    if isinstance(x, dtype) or (isinstance(x, np.ndarray) and x.dtype.kind in kinds):
        entries = f = np.array(x, dtype=dtype)
    else:
        entries = np.array(x, dtype=object)
        f = np.array([as_float(e, dtype) for e in entries.flat], dtype=dtype).reshape(entries.shape)
    good = ok(f)
    if not good.all():
        raise InvalidParameterError(f"{rule}, got {entries[~good].tolist()[0]!r}")
    f.flags.writeable = False
    return f


def check_frequencies(f_hz, name: str = "f_hz") -> np.ndarray:
    """`f_hz` as a new float array (`check_reals`) of positive and finite
    real numbers, else an InvalidParameterError names the parameter `name`."""
    rule = f"{name} must be positive and finite"
    return check_reals(f_hz, lambda f: (f > 0.0) & (f < math.inf), rule)  # NaN fails both
