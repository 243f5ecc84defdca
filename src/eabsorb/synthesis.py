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

from .errors import InvalidParameterError, SynthesisError, check_positive
from .model import DriverModel, passive_impedance
from .rational import RationalTransfer


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
    def single(cls, rst: float, f_hz: float, q: float) -> "TargetSpec":
        return cls((Resonator(rst, 2.0 * math.pi * f_hz, q),))

    @classmethod
    def multi(cls, entries: Sequence[tuple[float, float, float]]) -> "TargetSpec":
        """Entries are (rst, f_hz, q) triples."""
        return cls(tuple(Resonator(r, 2.0 * math.pi * f, q) for r, f, q in entries))


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
        return cls(kg, 2.0 * math.pi * fg_hz)


def target_impedance(spec: TargetSpec) -> RationalTransfer:
    """Impedance of the parallel resonator bank as one rational function."""
    admittance = None
    for res in spec.resonators:
        branch = RationalTransfer.from_coeffs(
            [res.omega_t / (res.qt * res.rst), 0.0],
            [1.0, res.omega_t / res.qt, res.omega_t**2],
        )
        admittance = branch if admittance is None else admittance + branch
    return admittance.inverse()


def feedback_filter(model: DriverModel, fb: FeedbackSpec) -> RationalTransfer:
    """First-order low-pass velocity feedback G(s) with DC gain rho0*c0*kg."""
    if fb.kg == 0.0:
        return RationalTransfer.zero()
    rc = model.air.characteristic_impedance
    return RationalTransfer.from_coeffs([rc * fb.kg * fb.omega_g], [1.0, fb.omega_g])


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    reason: str
    low_freq_compliance: float | None = None
    high_freq_mass: float | None = None

    def __bool__(self) -> bool:
        return self.admissible


def check_transfer_admissibility(zst: RationalTransfer) -> AdmissibilityVerdict:
    """A target must look like a compliance at DC and a mass at infinity.

    Structurally: numerator degree exceeds denominator degree by one (mass
    asymptote s*M) and the denominator has a root at s = 0 while the
    numerator does not (compliance asymptote 1/(s*C)).
    """
    num, den = zst.num, zst.den
    nscale = np.max(np.abs(num)) or 1.0
    dscale = np.max(np.abs(den)) or 1.0
    has_mass = zst.num_degree == zst.den_degree + 1
    has_compliance = abs(den[-1]) <= 1e-12 * dscale and abs(num[-1]) > 1e-12 * nscale
    if not has_mass:
        return AdmissibilityVerdict(False, "no mass asymptote: Z must grow like s*M at high frequency")
    if not has_compliance:
        return AdmissibilityVerdict(False, "no compliance asymptote: Z must grow like 1/(s*C) at low frequency")
    mass = num[0]  # leading coefficient after den normalization
    compliance = den[-2] / num[-1]
    return AdmissibilityVerdict(True, "ok", low_freq_compliance=compliance, high_freq_mass=mass)


@dataclass(frozen=True)
class ControllerPair:
    """The synthesized front-pressure (h1) and cavity-pressure (h2) filters."""

    h1: RationalTransfer
    h2: RationalTransfer


def synthesize_controller(
    model: DriverModel, target: TargetSpec | RationalTransfer, fb: FeedbackSpec
) -> ControllerPair:
    """Build the two control filters for the requested target impedance.

    h1 = (1/F) * (1 - (Zss + G)/Zst),  h2 = s*Csb*G/F.
    """
    zst = target if isinstance(target, RationalTransfer) else target_impedance(target)
    verdict = check_transfer_admissibility(zst)
    if not verdict:
        raise SynthesisError(f"inadmissible target impedance: {verdict.reason}")

    zss = passive_impedance(model)
    g = feedback_filter(model, fb)
    inv_f = 1.0 / model.pressure_factor

    quotient = ((zss + g) / zst).cancel_origin_roots()
    h1 = (inv_f * (1.0 - quotient)).cancel_origin_roots()
    h2 = (RationalTransfer.differentiator(model.csb * inv_f) * g).cancel_origin_roots()

    if not h1.is_proper or not h2.is_proper:
        raise SynthesisError("synthesized controller is not proper")
    return ControllerPair(h1=h1, h2=h2)


@dataclass(frozen=True)
class StabilityReport:
    """Hurwitz analysis of the loop's characteristic cubic s^3 + a s^2 + b s + c."""

    a: float
    b: float
    c: float
    kg_lower_bound: float

    @property
    def poles(self) -> tuple[complex, complex, complex]:  # companion-matrix eigenvalues
        return tuple(complex(r) for r in np.roots([1.0, self.a, self.b, self.c]))

    @property
    def stable(self) -> bool:
        return hurwitz_cubic_stable(self.a, self.b, self.c)

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


def hurwitz_cubic_stable(a: float, b: float, c: float) -> bool:
    """Left-half-plane test for s^3 + a s^2 + b s + c via Hurwitz minors."""
    return all(m > 0 for m in _hurwitz_minors(a, b, c))


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

