"""Recovery of the five plant parameters from measured impedance spectra.

Three virtual measurements drive the pipeline: the passive impedance, the
impedance with a proportional front-pressure probe controller, and the
impedance with a proportional cavity-pressure probe controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._csvio import read_columns, write_columns
from .errors import (
    IdentificationError, InvalidParameterError, check_frequencies, check_nonzero, check_reals,
)
from .model import AirProperties, DriverModel, passive_impedance

__all__ = [
    "MeasuredSpectrum", "ProbeGain", "default_probe_gains", "estimate_box_compliance",
    "estimate_force_factor", "fit_passive_params", "identify_model", "passive_spectrum",
    "probe_front_spectrum", "probe_rear_spectrum",
]

#: default identification band: 170 Hz to 250 Hz in 1 Hz steps
DEFAULT_BAND_HZ = np.arange(170.0, 251.0, 1.0)

#: relative rounding level of the passive fit's singular values and the probes' changes
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class MeasuredSpectrum:
    """Complex specific-impedance samples on an ascending frequency grid."""

    freqs_hz: np.ndarray  # Hz, strictly increasing
    z: np.ndarray  # Pa.s/m

    def __post_init__(self):
        freqs = check_frequencies(self.freqs_hz, "frequencies")
        z = check_reals(self.z, np.isfinite, "impedance samples must be finite numbers", complex)
        if freqs.size != z.size or freqs.size < 3:
            raise InvalidParameterError("need at least 3 matching samples")
        if not np.all(np.diff(freqs) > 0):
            raise InvalidParameterError("frequencies must be strictly increasing")
        object.__setattr__(self, "freqs_hz", freqs)
        object.__setattr__(self, "z", z)

    def to_csv(self, path, air: AirProperties) -> None:
        rc = air.characteristic_impedance
        columns = [self.freqs_hz, self.z.real / rc, self.z.imag / rc]
        write_columns(path, ["freq_hz", "re_z_norm", "im_z_norm"], columns)

    @classmethod
    def from_csv(cls, path, air: AirProperties) -> "MeasuredSpectrum":
        """The spectrum `to_csv` writes; a file that is not one raises
        InvalidParameterError naming `path`."""
        rc = air.characteristic_impedance
        try:
            freqs, re, im = read_columns(path, 3)
            z = (re * rc).astype(complex)
            z.imag = im * rc
            return cls(freqs, z)
        except (ValueError, IndexError) as exc:
            raise InvalidParameterError(f"malformed spectrum CSV {path}: {exc}") from exc


@dataclass(frozen=True)
class ProbeGain:
    """Proportional probe controller i = K * p: p is the front pressure for
    a gain passed as `k1`, the cavity pressure for one passed as `k2`."""

    k: float  # A/Pa

    def __post_init__(self):
        object.__setattr__(self, "k", check_nonzero(self.k, "probe gain"))


class PassiveFit(NamedTuple):
    mss: float
    rss: float
    ksc: float
    residual: float  # rms of the least-squares residual

    @property
    def omega0(self) -> float:
        return math.sqrt(self.ksc / self.mss)

    @property
    def qms(self) -> float:
        return math.sqrt(self.mss * self.ksc) / self.rss


def fit_passive_params(passive: MeasuredSpectrum) -> PassiveFit:
    """Least-squares fit of (Mss, Rss, Ksc) to the passive impedance.

    Real parts regress onto the resistance; imaginary parts onto
    omega*Mss - Ksc/omega.  The pseudo-inverse uses a rank-revealing SVD
    with a relative rank tolerance.
    """
    w = 2.0 * math.pi * passive.freqs_hz
    n = w.size
    zero = np.zeros(n)
    one = np.ones(n)
    a = np.block([[zero[:, None], one[:, None], zero[:, None]],
                  [w[:, None], zero[:, None], -(1.0 / w)[:, None]]])
    rhs = np.concatenate([passive.z.real, passive.z.imag])
    sol, _, _, sv = np.linalg.lstsq(a, rhs, rcond=RANK_TOL)
    if sv[-1] <= RANK_TOL * sv[0]:
        raise IdentificationError("design matrix is rank deficient; widen the frequency band")
    mss, rss, ksc = (float(x) for x in sol)
    if mss <= 0 or rss <= 0 or ksc <= 0:
        raise IdentificationError("fit produced non-physical (non-positive) parameters")
    residual = float(np.sqrt(np.mean((a @ sol - rhs) ** 2)))
    return PassiveFit(mss=mss, rss=rss, ksc=ksc, residual=residual)


class EstimateResult(NamedTuple):
    value: float
    imag_residual: float  # discarded imaginary part of the averaged quotient


def estimate_force_factor(
    passive: MeasuredSpectrum, probed: MeasuredSpectrum, k1: ProbeGain
) -> EstimateResult:
    """Pressure factor from the front-pressure probe measurement.

    F_hat = Re{ mean( (1 - Zss/Z1) / K1 ) }; refused if max |1 - Zss/Z1| <= RANK_TOL.
    """
    _check_same_grid(passive, probed)
    if np.any(probed.z == 0):
        raise IdentificationError("probed spectrum contains a zero impedance sample")
    change = 1.0 - passive.z / probed.z
    if np.max(np.abs(change)) <= RANK_TOL:
        raise IdentificationError("front probe does not change the impedance beyond rounding")
    quotient = np.mean(change / k1.k)
    return EstimateResult(value=float(quotient.real), imag_residual=float(quotient.imag))


def estimate_box_compliance(
    passive: MeasuredSpectrum, probed: MeasuredSpectrum, k2: ProbeGain, f_hat: float
) -> EstimateResult:
    """Box compliance from the cavity-pressure probe measurement.

    Csb_hat = Re{ mean( (F_hat*K2/(j*omega)) / (Z2 - Zss) ) }; refused if
    max |Z2 - Zss|/|Zss| <= RANK_TOL.
    """
    _check_same_grid(passive, probed)
    diff = probed.z - passive.z
    if np.all(np.abs(diff) <= RANK_TOL * np.abs(passive.z)):
        raise IdentificationError("rear probe does not change the impedance beyond rounding")
    if np.any(diff == 0):
        raise IdentificationError("probed and passive spectra coincide at a sample")
    quotient = np.mean((f_hat * k2.k / (2j * math.pi * passive.freqs_hz)) / diff)
    return EstimateResult(value=float(quotient.real), imag_residual=float(quotient.imag))


def _check_same_grid(a: MeasuredSpectrum, b: MeasuredSpectrum) -> None:
    if a.freqs_hz.size != b.freqs_hz.size or np.any(a.freqs_hz != b.freqs_hz):
        raise InvalidParameterError("spectra must share the same frequency grid")


# -- virtual measurements ----------------------------------------------------


def _probed_spectrum(model: DriverModel, freqs_hz, k1: float = 0.0, k2: float = 0.0):
    """Z = (Zss + F*K2/(s*Csb)) / (1 - F*K1) under the probes i = K1*p_f + K2*p_b."""
    freqs = check_frequencies(freqs_hz, "freqs_hz")
    s = 2j * math.pi * freqs
    z = passive_impedance(model)(s) + model.pressure_factor * k2 / (s * model.csb)
    return MeasuredSpectrum(freqs, z / (1.0 - model.pressure_factor * k1))


def passive_spectrum(model: DriverModel, freqs_hz=DEFAULT_BAND_HZ) -> MeasuredSpectrum:
    return _probed_spectrum(model, freqs_hz)


def probe_front_spectrum(
    model: DriverModel, k1: ProbeGain, freqs_hz=DEFAULT_BAND_HZ
) -> MeasuredSpectrum:
    """Impedance with i = K1*p_f: Z1 = Zss / (1 - F*K1).

    A front microphone of gain g reads g*p_f, so it is the probe ProbeGain(K1*g).
    """
    if 1.0 - model.pressure_factor * k1.k <= 0:
        raise IdentificationError("front probe loop is unstable (F*K1 >= 1)")
    return _probed_spectrum(model, freqs_hz, k1=k1.k)


def probe_rear_spectrum(
    model: DriverModel, k2: ProbeGain, freqs_hz=DEFAULT_BAND_HZ
) -> MeasuredSpectrum:
    """Impedance with i = K2*p_b: Z2 = Zss + F*K2/(s*Csb)."""
    if model.ksc + model.pressure_factor * k2.k / model.csb <= 0:
        raise IdentificationError("rear probe loop removes all stiffness (unstable)")
    return _probed_spectrum(model, freqs_hz, k2=k2.k)


def default_probe_gains(model: DriverModel) -> tuple[ProbeGain, ProbeGain]:
    """Probe gains that move the impedance noticeably while staying passive.

    Front gain shifts the impedance by a factor 1.25; the rear gain adds a
    reactive term of 0.7*Rss at resonance.  Both loops are stable for every
    valid model: the front loop's residual gain 1 - F*K1 is 0.8, and the
    rear gain is positive, so it only adds stiffness.
    """
    k1 = ProbeGain(0.2 / model.pressure_factor)
    k2 = ProbeGain(0.7 * model.rss * model.omega0 * model.csb / model.pressure_factor)
    return k1, k2


def identify_model(
    passive: MeasuredSpectrum,
    front_probe: MeasuredSpectrum,
    k1: ProbeGain,
    rear_probe: MeasuredSpectrum,
    k2: ProbeGain,
    air: AirProperties,
) -> tuple[DriverModel, dict]:
    """Full three-step pipeline; returns the model and fit diagnostics."""
    fit = fit_passive_params(passive)
    f_est = estimate_force_factor(passive, front_probe, k1)
    c_est = estimate_box_compliance(passive, rear_probe, k2, f_est.value)
    if f_est.value <= 0 or c_est.value <= 0:
        raise IdentificationError("estimated parameters are non-positive")
    model = DriverModel(
        rss=fit.rss,
        omega0=fit.omega0,
        qms=fit.qms,
        pressure_factor=f_est.value,
        csb=c_est.value,
        air=air,
    )
    diagnostics = {
        "passive_fit_residual": fit.residual,
        "force_factor_imag_residual": f_est.imag_residual,
        "compliance_imag_residual": c_est.imag_residual,
    }
    return model, diagnostics
