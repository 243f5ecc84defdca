"""Virtual impedance tube: two-microphone measurement and its inversion.

Coordinate convention (documented, fixed by the round-trip identity): let
xi be the distance from the sample plane toward the source.  The plane-wave
field is p(xi) = e^{-j*k*xi} + Gamma * e^{j*k*xi}; microphone 1 sits at
xi = x1 and microphone 2 at xi = x1 + delta_x (one spacing further from the
sample).  With H12 = p2/p1 the inversion

    Gamma = (H12 - e^{-j*k*dx}) / (e^{j*k*dx} - H12) * e^{-2*j*k*x1}

recovers the termination reflection coefficient exactly in the noiseless
case.  The duct is lossless and restricted to the plane-wave regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import reflection_coefficient
from .errors import (
    InvalidParameterError,
    check_count,
    check_frequencies,
    check_number,
    check_positive,
    check_reals,
)
from .model import AirProperties

__all__ = [
    "REFERENCE_GEOMETRY", "ReflectionResult", "TwoMicMeasurement", "WaveguideGeometry",
    "add_measurement_noise", "recover_reflection", "simulate_two_mic",
]

#: first circular-duct cut-on: f = 1.8412 * c0 / (pi * diameter)
FIRST_MODE_BESSEL_ROOT = 1.8412

#: |e^{jk dx} - H12| below this is flagged as a singular inversion frequency
SINGULAR_TOL = 1e-12

#: |sin(k dx)| at or below this flags a spacing resonance, k dx = m pi: the
#: inversion's rounding error in alpha grows like 1e-16 / |sin(k dx)|, so
#: an unflagged frequency keeps it near 1e-10 or below
SPACING_TOL = 1e-6


@dataclass(frozen=True)
class WaveguideGeometry:
    """Impedance-tube dimensions in meters: the microphone positions and the
    bore diameter (the plane-wave limit), all the plane-wave model reads."""

    delta_x: float  # microphone spacing
    x1: float  # distance from sample plane to the nearer microphone
    diameter: float

    def __post_init__(self):
        check_positive(self, "delta_x", "x1", "diameter")
        if self.delta_x >= self.x1:
            raise InvalidParameterError("delta_x must be smaller than x1")

    def plane_wave_limit_hz(self, air: AirProperties) -> float:
        return FIRST_MODE_BESSEL_ROOT * air.c0 / (math.pi * self.diameter)


#: the reference tube of the experimental setup
REFERENCE_GEOMETRY = WaveguideGeometry(delta_x=0.100, x1=0.420, diameter=0.072)


@dataclass(frozen=True, eq=False)
class TwoMicMeasurement:
    """Inter-microphone transfer function H12 = p2/p1 per frequency."""

    freqs_hz: np.ndarray
    h12: np.ndarray

    def __post_init__(self):
        freqs = check_frequencies(self.freqs_hz, "freqs_hz")
        h12 = check_reals(self.h12, np.isfinite, "H12 samples must be finite numbers", complex)
        if freqs.size != h12.size:
            raise InvalidParameterError("frequency and H12 arrays must match")
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "h12", h12)


def simulate_two_mic(
    freqs_hz, z_term, geom: WaveguideGeometry, air: AirProperties
) -> TwoMicMeasurement:
    """Forward standing-wave model of the two-microphone measurement.

    `z_term` is the complex specific impedance of the termination, one
    finite number per frequency.  H12 is an amplitude ratio, so the incident
    level never enters.  Frequencies above the plane-wave cut-on, and any
    that are not positive and finite, are rejected.
    """
    freqs = check_frequencies(freqs_hz, "freqs_hz")
    limit = geom.plane_wave_limit_hz(air)
    if np.any(freqs >= limit):
        raise InvalidParameterError(
            f"frequencies above the plane-wave limit ({limit:.0f} Hz) are not supported"
        )
    z = check_reals(z_term, np.isfinite, "z_term samples must be finite numbers", complex)
    if z.shape != freqs.shape:
        raise InvalidParameterError(f"z_term must match freqs_hz's shape {freqs.shape}, got {z.shape}")
    gamma = reflection_coefficient(z, air)
    kxi = np.multiply.outer((geom.x1, geom.x1 + geom.delta_x), 2.0 * np.pi * freqs / air.c0)
    p1, p2 = np.exp(-1j * kxi) + gamma * np.exp(1j * kxi)
    return TwoMicMeasurement(freqs, p2 / p1)


def add_measurement_noise(
    meas: TwoMicMeasurement, rel_std: float, seed: int
) -> TwoMicMeasurement:
    """Additive complex Gaussian noise of relative size rel_std on H12.

    The seed is a non-negative integer and rel_std a non-negative number
    (`errors.check_count`, `errors.check_number`).
    """
    check_count(seed, "seed", allow_zero=True)
    rel_std = check_number(rel_std, "rel_std", allow_zero=True)
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, rel_std, meas.h12.size) + 1j * rng.normal(
        0.0, rel_std, meas.h12.size
    )
    return TwoMicMeasurement(meas.freqs_hz, meas.h12 * (1.0 + noise))


@dataclass(frozen=True, eq=False)
class ReflectionResult:
    freqs_hz: np.ndarray
    gamma: np.ndarray
    z: np.ndarray  # recovered specific impedance
    singular: np.ndarray  # bool mask of flagged frequencies


def recover_reflection(
    meas: TwoMicMeasurement, geom: WaveguideGeometry, air: AirProperties
) -> ReflectionResult:
    """Invert H12 into the termination reflection coefficient and impedance.

    Frequencies where the inversion denominator collapses, and those with
    |sin(k*dx)| at most `SPACING_TOL` (a spacing of a whole number of half
    wavelengths, k*dx = m*pi, or a hair off one), are flagged, not raised.
    """
    k = 2.0 * np.pi * meas.freqs_hz / air.c0
    e_plus = np.exp(1j * k * geom.delta_x)
    e_minus = np.exp(-1j * k * geom.delta_x)
    den = e_plus - meas.h12
    spacing_resonance = np.abs(np.sin(k * geom.delta_x)) <= SPACING_TOL
    singular = (np.abs(den) <= SINGULAR_TOL) | spacing_resonance
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = (meas.h12 - e_minus) / den * np.exp(-2j * k * geom.x1)
        z = air.characteristic_impedance * (1.0 + gamma) / (1.0 - gamma)
    return ReflectionResult(freqs_hz=meas.freqs_hz, gamma=gamma, z=z, singular=singular)
