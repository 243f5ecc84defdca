"""Rational transfer functions of the Laplace variable.

Coefficients are stored as real arrays in descending powers of s, with the
leading denominator coefficient normalized to 1.  Arithmetic is plain
polynomial arithmetic over a common denominator; the only simplifications
performed are the removal of exactly-zero leading coefficients and, on
request, of common roots at the origin.  Coefficients that do not fit
float64 in that form raise OverflowError.

Evaluation is Horner's rule with every power of s and every coefficient
scaled by a power of two (see `RationalTransfer.__call__`), so products of
wide-range coefficients evaluate without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Leading/trailing coefficients below this fraction of the largest
# coefficient of the same polynomial are treated as exact zeros.
COEFF_TOL = 1e-12


def _trim_leading(c: np.ndarray) -> np.ndarray:
    # only exactly-zero leading coefficients may be dropped: polynomial
    # products routinely span many orders of magnitude, so a relative
    # threshold here would silently change the degree
    c = np.atleast_1d(np.asarray(c, dtype=float))
    first = 0
    while first < len(c) - 1 and c[first] == 0.0:
        first += 1
    return c[first:]


@dataclass(frozen=True)
class RationalTransfer:
    """Real-coefficient rational function of s, evaluable on the jw axis."""

    num: np.ndarray
    den: np.ndarray

    @classmethod
    def from_coeffs(cls, num, den) -> "RationalTransfer":
        num = _trim_leading(num)
        den = _trim_leading(den)
        if np.all(den == 0.0):
            raise ZeroDivisionError("denominator polynomial is zero")
        lead = den[0]
        with np.errstate(over="ignore", invalid="ignore"):
            num = num / lead
            den = den / lead
        if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
            raise OverflowError("coefficients are not finite once the denominator is made monic")
        num.setflags(write=False)
        den.setflags(write=False)
        return cls(num=num, den=den)

    @classmethod
    def constant(cls, gain: float) -> "RationalTransfer":
        return cls.from_coeffs([float(gain)], [1.0])

    @classmethod
    def zero(cls) -> "RationalTransfer":
        return cls.from_coeffs([0.0], [1.0])

    @classmethod
    def differentiator(cls, gain: float = 1.0) -> "RationalTransfer":
        """gain * s"""
        return cls.from_coeffs([float(gain), 0.0], [1.0])

    # -- evaluation ---------------------------------------------------------

    def __call__(self, s):
        """Value at s.

        Horner's rule runs in t = s / 2**k, with 2**k the least power of two
        above |s| (k = 0 when |s| < 1), on each polynomial's coefficients
        divided by the least power of two 2**e above the largest of them.
        Every coefficient of t is then below 1 and |t| < 1, so no
        intermediate overflows, and the ratio takes back its scale
        2**(k*(deg num - deg den) + e_num - e_den) in one ldexp.  Power-of-two
        scaling is exact, so the value is plain Horner's wherever that stays
        in range.  A value beyond the float64 range evaluates to +-inf.
        """
        s = np.asarray(s)
        k = np.maximum(np.frexp(np.abs(s))[1], 0)
        scale = np.ldexp(1.0, -k)
        t = s * scale
        num, e_num = _scaled_horner(self.num, t, scale)
        den, e_den = _scaled_horner(self.den, t, scale)
        exp = k * (self.num_degree - self.den_degree) + e_num - e_den
        ratio = np.asarray(num / den)
        value = np.empty_like(ratio)
        with np.errstate(over="ignore"):
            if np.iscomplexobj(ratio):
                value.real = np.ldexp(ratio.real, exp)
                value.imag = np.ldexp(ratio.imag, exp)
            else:
                value[...] = np.ldexp(ratio, exp)
        return value[()]

    # -- structure ----------------------------------------------------------

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    @property
    def is_proper(self) -> bool:
        return self.num_degree <= self.den_degree

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.num == 0.0))

    def poles(self) -> np.ndarray:
        return np.roots(self.den)

    def zeros(self) -> np.ndarray:
        return np.roots(self.num) if self.num_degree >= 1 else np.array([])

    def cancel_origin_roots(self) -> "RationalTransfer":
        """Divide out common exact roots at s = 0 from num and den."""
        num, den = self.num, self.den
        nscale = np.max(np.abs(num)) or 1.0
        dscale = np.max(np.abs(den)) or 1.0
        while (
            len(num) > 1
            and len(den) > 1
            and abs(num[-1]) <= COEFF_TOL * nscale
            and abs(den[-1]) <= COEFF_TOL * dscale
        ):
            num = num[:-1]
            den = den[:-1]
        return RationalTransfer.from_coeffs(num, den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_transfer(other)
        # coefficients beyond float64 come out inf or nan, which from_coeffs
        # rejects
        with np.errstate(over="ignore", invalid="ignore"):
            num = np.polyadd(np.polymul(self.num, other.den), np.polymul(other.num, self.den))
        return RationalTransfer.from_coeffs(num, np.polymul(self.den, other.den))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_transfer(other))

    def __rsub__(self, other):
        return _as_transfer(other) - self

    def __mul__(self, other):
        other = _as_transfer(other)
        return RationalTransfer.from_coeffs(
            np.polymul(self.num, other.num), np.polymul(self.den, other.den)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_transfer(other)
        return RationalTransfer.from_coeffs(
            np.polymul(self.num, other.den), np.polymul(self.den, other.num)
        )

    def __rtruediv__(self, other):
        return _as_transfer(other) / self

    def __neg__(self):
        return RationalTransfer.from_coeffs(-self.num, self.den)

    def inverse(self) -> "RationalTransfer":
        return RationalTransfer.from_coeffs(self.den, self.num)


def _scaled_horner(c: np.ndarray, t, scale):
    """(y, e) with c(t / scale) * scale**deg = y * 2**e, by Horner's rule on
    c / 2**e, where 2**e bounds |c|."""
    e = np.frexp(np.max(np.abs(c)))[1]
    c = np.ldexp(c, -e)
    y = np.zeros_like(t)
    power = np.ones_like(scale)
    for cj in c:
        y = y * t + cj * power
        power = power * scale
    return y, e


def _as_transfer(x) -> RationalTransfer:
    if isinstance(x, RationalTransfer):
        return x
    return RationalTransfer.constant(float(x))
