"""Target impedance, controller pair synthesis and closed-loop stability.

The controller maps the two pressures (front, cavity) to the voice-coil
current.  Synthesis inverts the plant model against a prescribed target
impedance, with an optional first-order low-pass velocity feedback that
desensitizes the design to model errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, SynthesisError, check_number, check_positive
from .model import DriverModel, passive_impedance
from .rational import COEFF_TOL, RationalTransfer

__all__ = [
    "ControllerPair", "FeedbackSpec", "Resonator", "StabilityReport", "TargetSpec",
    "feedback_filter", "stability_report", "synthesize_controller", "target_impedance",
]


@dataclass(frozen=True)
class Resonator:
    """One parallel branch of the target impedance."""

    rst: float  # specific resistance at resonance (Pa.s/m)
    omega_t: float  # resonance angular frequency (rad/s)
    qt: float  # quality factor

    def __post_init__(self):
        check_positive(self, "rst", "omega_t", "qt")


@dataclass(frozen=True)
class TargetSpec:
    """Parallel connection of N second-order resonators."""

    resonators: tuple[Resonator, ...]

    def __post_init__(self):
        if len(self.resonators) < 1:
            raise InvalidParameterError("at least one resonator is required")

    @classmethod
    def multi(cls, entries: Sequence[tuple[float, float, float]]) -> "TargetSpec":
        """Entries are (rst, f_hz, q) triples."""
        return cls(
            tuple(Resonator(r, 2.0 * math.pi * check_number(f, "f in Hz"), q) for r, f, q in entries)
        )


@dataclass(frozen=True)
class FeedbackSpec:
    """Dimensionless feedback gain and low-pass cut-off of the velocity loop."""

    kg: float
    omega_g: float

    def __post_init__(self):
        check_positive(self, "kg", allow_zero=True)
        check_positive(self, "omega_g")

    @classmethod
    def from_hz(cls, kg: float, fg_hz: float) -> "FeedbackSpec":
        return cls(kg, 2.0 * math.pi * check_number(fg_hz, "fg in Hz"))


def target_impedance(spec: TargetSpec) -> RationalTransfer:
    """Impedance of the parallel resonator bank as one rational function.

    Raises SynthesisError when the bank's admittance underflows to zero.
    """
    admittance = None
    for res in spec.resonators:
        branch = RationalTransfer.from_coeffs(
            [res.omega_t / (res.qt * res.rst), 0.0],
            [1.0, res.omega_t / res.qt, res.omega_t**2],
        )
        admittance = branch if admittance is None else admittance + branch
    if admittance.is_zero:
        # resonances so low that every branch's numerator underflows
        raise SynthesisError("target admittance underflows to zero: no finite impedance")
    return admittance.inverse()


def feedback_filter(model: DriverModel, fb: FeedbackSpec) -> RationalTransfer:
    """First-order low-pass velocity feedback G(s) with DC gain rho0*c0*kg."""
    if fb.kg == 0.0:
        return RationalTransfer.constant(0.0)
    rc = model.air.characteristic_impedance
    return RationalTransfer.from_coeffs([rc * fb.kg * fb.omega_g], [1.0, fb.omega_g])


@dataclass(frozen=True, eq=False)
class ControllerPair:
    """The synthesized front-pressure (h1) and cavity-pressure (h2) filters."""

    h1: RationalTransfer
    h2: RationalTransfer


def synthesize_controller(
    model: DriverModel, target: TargetSpec, fb: FeedbackSpec
) -> ControllerPair:
    """Build the two control filters for the requested target impedance.

    h1 = (1/F) * (1 - (Zss + G)/Zst) and h2 = s*Csb*G/F are proper: Zst and
    Zss have one zero more than poles, and G is at most a first-order low-pass.
    Zst has a pole at s = 0 by construction; resonances below ~1.6e-7 Hz
    make its constant numerator coefficient count as zero (COEFF_TOL), so
    it has no compliance asymptote 1/(s*C), and SynthesisError is raised.
    """
    zst = target_impedance(target)
    if abs(zst.num[-1]) <= COEFF_TOL * np.max(np.abs(zst.num)):
        raise SynthesisError("inadmissible target impedance: no compliance asymptote: "
                             "Z must grow like 1/(s*C) at low frequency")

    zss = passive_impedance(model)
    g = feedback_filter(model, fb)
    inv_f = 1.0 / model.pressure_factor

    quotient = ((zss + g) / zst).cancel_origin_roots()
    h1 = (inv_f * (1.0 - quotient)).cancel_origin_roots()
    h2 = (RationalTransfer.differentiator(model.csb * inv_f) * g).cancel_origin_roots()
    return ControllerPair(h1=h1, h2=h2)


@dataclass(frozen=True)
class StabilityReport:
    """Hurwitz analysis of the loop's characteristic cubic s^3 + a s^2 + b s + c.

    `stable` is the Hurwitz test (every leading principal minor positive);
    `margin`, the largest real part of the companion-matrix `poles`, is
    negative exactly when it holds, to rounding.
    """

    a: float
    b: float
    c: float
    kg_lower_bound: float

    @property
    def poles(self) -> tuple[complex, complex, complex]:  # companion-matrix eigenvalues
        return tuple(complex(r) for r in np.roots([1.0, self.a, self.b, self.c]))

    @property
    def stable(self) -> bool:
        return all(m > 0 for m in _hurwitz_minors(self.a, self.b, self.c))

    @property
    def margin(self) -> float:  # max real part of the poles (negative when stable)
        return max(p.real for p in self.poles)

    def to_json(self) -> str:
        return json.dumps(
            {
                "a": self.a,
                "b": self.b,
                "c": self.c,
                "minors": list(_hurwitz_minors(self.a, self.b, self.c)),
                "poles": [[p.real, p.imag] for p in self.poles],
                "stable": self.stable,
                "kg_lower_bound": self.kg_lower_bound,
                "margin": self.margin,
            },
            indent=2,
        )


def _hurwitz_minors(a: float, b: float, c: float) -> tuple[float, float, float]:
    """Leading principal minors of the Hurwitz matrix of s^3 + a s^2 + b s + c."""
    return a, a * b - c, c * (a * b - c)


def stability_report(model: DriverModel, fb: FeedbackSpec) -> StabilityReport:
    """Analyze the cubic closed-loop characteristic polynomial.

    The cubic does not depend on the target impedance, only on the plant
    and the feedback filter.
    """
    w0, q, wg = model.omega0, model.qms, fb.omega_g
    rc = model.air.characteristic_impedance
    a = w0 / q + wg
    b = w0**2 + (w0 * wg / q) * (rc * fb.kg / model.rss + 1.0)
    c = w0**2 * wg
    ratio = w0 / wg
    kg_bound = -(model.rss / rc) * (1.0 + q * ratio**2 / (q + ratio))
    return StabilityReport(a=a, b=b, c=c, kg_lower_bound=kg_bound)

