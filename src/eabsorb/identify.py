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
from .errors import IdentificationError, InvalidParameterError, check_frequencies
from .model import AirProperties, DriverModel, passive_impedance

#: default identification band: 170 Hz to 250 Hz in 1 Hz steps
DEFAULT_BAND_HZ = np.arange(170.0, 250.0 + 1e-9, 1.0)

RANK_TOL = 1e-10


@dataclass(frozen=True)
class MeasuredSpectrum:
    """Complex specific-impedance samples on an ascending frequency grid."""

    omega: np.ndarray  # rad/s, strictly increasing
    z: np.ndarray  # Pa.s/m

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        z = np.asarray(self.z, dtype=complex)
        if omega.size != z.size or omega.size < 3:
            raise InvalidParameterError("need at least 3 matching samples")
        check_frequencies(omega, "angular frequencies")
        if not np.all(np.diff(omega) > 0):
            raise InvalidParameterError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(z)):
            raise InvalidParameterError("impedance samples must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "z", z)

    @property
    def freqs_hz(self) -> np.ndarray:
        return self.omega / (2.0 * math.pi)

    def to_csv(self, path, air: AirProperties) -> None:
        rc = air.characteristic_impedance
        columns = [self.freqs_hz, self.z.real / rc, self.z.imag / rc]
        write_columns(path, ["freq_hz", "re_z_norm", "im_z_norm"], columns)

    @classmethod
    def from_csv(cls, path, air: AirProperties) -> "MeasuredSpectrum":
        rc = air.characteristic_impedance
        freqs, re, im = read_columns(path, 3)
        z = (re * rc).astype(complex)
        z.imag = im * rc
        return cls(2.0 * math.pi * freqs, z)


@dataclass(frozen=True)
class ProbeGain:
    """Proportional probe controller i = K * p: p is the front pressure for
    a gain passed as `k1`, the cavity pressure for one passed as `k2`."""

    k: float  # A/Pa

    def __post_init__(self):
        if self.k == 0 or not math.isfinite(self.k):
            raise InvalidParameterError("probe gain must be finite and nonzero")


class PassiveFit(NamedTuple):
    mss: float
    rss: float
    ksc: float
    omega0: float
    qms: float
    residual: float  # rms of the least-squares residual


def fit_passive_params(passive: MeasuredSpectrum) -> PassiveFit:
    """Least-squares fit of (Mss, Rss, Ksc) to the passive impedance.

    Real parts regress onto the resistance; imaginary parts onto
    omega*Mss - Ksc/omega.  The pseudo-inverse uses a rank-revealing SVD
    with a relative rank tolerance.
    """
    w = passive.omega
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
    return PassiveFit(
        mss=mss,
        rss=rss,
        ksc=ksc,
        omega0=math.sqrt(ksc / mss),
        qms=math.sqrt(mss * ksc) / rss,
        residual=residual,
    )


class EstimateResult(NamedTuple):
    value: float
    imag_residual: float  # discarded imaginary part of the averaged quotient


def estimate_force_factor(
    passive: MeasuredSpectrum, probed: MeasuredSpectrum, k1: ProbeGain
) -> EstimateResult:
    """Pressure factor from the front-pressure probe measurement.

    F_hat = Re{ mean( (1 - Zss/Z1) / K1 ) }.
    """
    _check_same_grid(passive, probed)
    if np.any(probed.z == 0):
        raise IdentificationError("probed spectrum contains a zero impedance sample")
    quotient = np.mean((1.0 - passive.z / probed.z) / k1.k)
    return EstimateResult(value=float(quotient.real), imag_residual=float(quotient.imag))


def estimate_box_compliance(
    passive: MeasuredSpectrum, probed: MeasuredSpectrum, k2: ProbeGain, f_hat: float
) -> EstimateResult:
    """Box compliance from the cavity-pressure probe measurement.

    Csb_hat = Re{ mean( (F_hat*K2/(j*omega)) / (Z2 - Zss) ) }.
    """
    _check_same_grid(passive, probed)
    diff = probed.z - passive.z
    if np.any(diff == 0):
        raise IdentificationError("probed and passive spectra coincide at a sample")
    quotient = np.mean((f_hat * k2.k / (1j * passive.omega)) / diff)
    return EstimateResult(value=float(quotient.real), imag_residual=float(quotient.imag))


def _check_same_grid(a: MeasuredSpectrum, b: MeasuredSpectrum) -> None:
    if a.omega.size != b.omega.size or np.any(a.omega != b.omega):
        raise IdentificationError("spectra must share the same frequency grid")


# -- virtual measurements ----------------------------------------------------


def passive_spectrum(model: DriverModel, freqs_hz=DEFAULT_BAND_HZ) -> MeasuredSpectrum:
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    return MeasuredSpectrum(omega, passive_impedance(model)(1j * omega))


def probe_front_spectrum(
    model: DriverModel, k1: ProbeGain, freqs_hz=DEFAULT_BAND_HZ, mic_gain: float = 1.0
) -> MeasuredSpectrum:
    """Impedance with i = K1*p_f: Z1 = Zss / (1 - F*K1*mic_gain).

    `mic_gain` models an uncalibrated front control microphone.
    """
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    zss = passive_impedance(model)(1j * omega)
    loop = 1.0 - model.pressure_factor * k1.k * mic_gain
    if loop <= 0:
        raise IdentificationError("front probe loop is unstable (F*K1 >= 1)")
    return MeasuredSpectrum(omega, zss / loop)


def probe_rear_spectrum(
    model: DriverModel, k2: ProbeGain, freqs_hz=DEFAULT_BAND_HZ, mic_gain: float = 1.0
) -> MeasuredSpectrum:
    """Impedance with i = K2*p_b: Z2 = Zss + F*K2*mic_gain/(s*Csb)."""
    keff = k2.k * mic_gain
    if model.ksc + model.pressure_factor * keff / model.csb <= 0:
        raise IdentificationError("rear probe loop removes all stiffness (unstable)")
    omega = 2.0 * math.pi * np.asarray(freqs_hz, dtype=float)
    zss = passive_impedance(model)(1j * omega)
    extra = model.pressure_factor * keff / (1j * omega * model.csb)
    return MeasuredSpectrum(omega, zss + extra)


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
