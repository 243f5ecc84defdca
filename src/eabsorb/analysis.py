"""Robustness analysis: achieved impedance under model mismatch, analytic
sensitivities, absorption coefficients and the Monte-Carlo quartile study.

All three mismatch results come from one kernel.  The achieved impedance

    Z_sa = Zst * (G*Csb_hat/Csb + Zss*F_hat/F)
               / (G + Zss_hat + Zst*(F_hat/F - 1))

is linear-fractional in the estimate vector
p = [1, Csb_hat/Csb, F_hat/F, R_hat, M_hat, K_hat], where
Zss_hat = R_hat + M_hat*s + K_hat/s, M_hat = R_hat*Q_hat/w0_hat and
K_hat = R_hat*Q_hat*w0_hat.  `_mismatch_kernel` returns the per-frequency
coefficient arrays N and D with Z_sa = (p @ N) / (p @ D):
`achieved_impedance` evaluates that ratio, `sensitivities` are its
log-derivatives, and `monte_carlo_absorption` evaluates the reflection
coefficient of a block of draws as two matrix products.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .model import AirProperties, DriverModel, passive_impedance
from .synthesis import FeedbackSpec, TargetSpec, feedback_filter, target_impedance

#: denominator magnitudes below this fraction of the surrounding scale are
#: flagged as singular evaluation frequencies
SINGULAR_TOL = 1e-300


@dataclass(frozen=True)
class ParameterEstimates:
    """Estimated plant parameters as used inside the controller filters."""

    rss: float
    omega0: float
    qms: float
    pressure_factor: float
    csb: float

    def __post_init__(self):
        for name in ("rss", "omega0", "qms", "pressure_factor", "csb"):
            if getattr(self, name) <= 0:
                raise InvalidParameterError(f"{name} must be strictly positive")

    @classmethod
    def from_model(cls, model: DriverModel) -> "ParameterEstimates":
        return cls(model.rss, model.omega0, model.qms, model.pressure_factor, model.csb)

    @classmethod
    def scaled(
        cls,
        model: DriverModel,
        rss: float = 1.0,
        omega0: float = 1.0,
        qms: float = 1.0,
        pressure_factor: float = 1.0,
        csb: float = 1.0,
    ) -> "ParameterEstimates":
        """Estimates equal to the true parameters times per-parameter factors."""
        return cls(
            model.rss * rss,
            model.omega0 * omega0,
            model.qms * qms,
            model.pressure_factor * pressure_factor,
            model.csb * csb,
        )


def _estimate_vector(model: DriverModel, rss, omega0, qms, pressure_factor, csb) -> np.ndarray:
    """p = [1, Csb_hat/Csb, F_hat/F, R_hat, M_hat, K_hat] of estimated
    parameter values, one row per estimate set when they are arrays."""
    m_hat = rss * qms / omega0
    k_hat = rss * qms * omega0
    f_ratio = pressure_factor / model.pressure_factor
    c_ratio = csb / model.csb
    return np.stack(np.broadcast_arrays(1.0, c_ratio, f_ratio, rss, m_hat, k_hat), axis=-1)


def _mismatch_kernel(model: DriverModel, target: TargetSpec, fb: FeedbackSpec, s):
    """The achieved impedance as a linear-fractional map of the estimates.

    Returns (6, n_freq) arrays N, D with Z_sa = (p @ N) / (p @ D) for the
    estimate vector p of `_estimate_vector`.
    """
    zst = target_impedance(target)(s)
    g = feedback_filter(model, fb)(s)
    zss = passive_impedance(model)(s)
    zero = np.zeros_like(s)
    num = np.array([zero, zst * g, zst * zss, zero, zero, zero])
    den = np.array([g - zst, zero, zst, np.ones_like(s), s, 1.0 / s])
    return num, den


def achieved_impedance(
    model: DriverModel,
    estimates: ParameterEstimates,
    target: TargetSpec,
    fb: FeedbackSpec,
    omega,
    return_mask: bool = False,
):
    """Impedance Z_sa actually presented when the controller uses `estimates`.

    Singular evaluation frequencies (vanishing denominator) are flagged in
    the optional mask and returned as inf, never raised.
    """
    num, den = _mismatch_kernel(model, target, fb, 1j * np.asarray(omega, dtype=float))
    p = _estimate_vector(model, *astuple(estimates))
    den_p = p @ den
    mask = np.abs(den_p) <= SINGULAR_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        zsa = (p @ num) / den_p
    zsa = np.where(mask, np.inf + 0j, zsa)
    if return_mask:
        return zsa, mask
    return zsa


@dataclass(frozen=True)
class SensitivityTriple:
    """Logarithmic sensitivities of the achieved impedance, per frequency."""

    s_zss: np.ndarray
    s_f: np.ndarray
    s_csb: np.ndarray
    singular: np.ndarray


def sensitivities(
    model: DriverModel,
    estimates: ParameterEstimates,
    target: TargetSpec,
    fb: FeedbackSpec,
    omega,
) -> SensitivityTriple:
    """Closed-form sensitivities of Z_sa to the three estimated quantities.

    They are the log-derivatives p_k * (N_k/(p.N) - D_k/(p.D)) of the
    mismatch kernel; Zss_hat scales R_hat, M_hat and K_hat together.  As the
    feedback gain grows the triple tends to (0, 0, 1): large G hides errors
    in the passive-impedance and force-factor estimates but passes
    compliance errors straight through.
    """
    num, den = _mismatch_kernel(model, target, fb, 1j * np.asarray(omega, dtype=float))
    p = _estimate_vector(model, *astuple(estimates))
    with np.errstate(divide="ignore", invalid="ignore"):
        num_p = p @ num
        den_p = p @ den
        s_zss = -(p[3:] @ den[3:]) / den_p
        s_f = p[2] * (num[2] / num_p - den[2] / den_p)
        s_csb = p[1] * num[1] / num_p
    singular = ~(np.isfinite(s_zss) & np.isfinite(s_f) & np.isfinite(s_csb))
    return SensitivityTriple(s_zss=s_zss, s_f=s_f, s_csb=s_csb, singular=singular)


def reflection_coefficient(z, air: AirProperties):
    """Normal-incidence pressure reflection coefficient of impedance z."""
    z = np.asarray(z, dtype=complex)
    rc = air.characteristic_impedance
    with np.errstate(divide="ignore", invalid="ignore"):
        return (z - rc) / (z + rc)


def absorption_coefficient(z, air: AirProperties):
    """Fraction of incident power absorbed: 1 - |reflection|^2.

    Equals 1 only for z = rho0*c0; negative values mean the surface is
    acoustically active (injects power).
    """
    gamma = reflection_coefficient(z, air)
    return 1.0 - np.abs(gamma) ** 2


def default_frequency_grid() -> np.ndarray:
    """10 Hz to 1 kHz in 2 Hz steps."""
    return np.arange(10.0, 1000.0 + 1e-9, 2.0)


@dataclass(frozen=True)
class MonteCarloConfig:
    n_draws: int
    rel_std: float
    seed: int
    freqs_hz: np.ndarray = field(default_factory=default_frequency_grid)

    def __post_init__(self):
        if self.n_draws < 1:
            raise InvalidParameterError("n_draws must be at least 1")
        if not (0.0 <= self.rel_std < 0.2):
            raise InvalidParameterError("rel_std must be in [0, 0.2)")


@dataclass(frozen=True)
class QuartileBand:
    """Per-frequency first/third quartiles of the achieved absorption."""

    freqs_hz: np.ndarray
    q1: np.ndarray
    q3: np.ndarray
    nominal: np.ndarray

    def __post_init__(self):
        if np.any(self.q1 > self.q3 + 1e-15):
            raise InvalidParameterError("q1 must not exceed q3")

    @property
    def width(self) -> np.ndarray:
        return self.q3 - self.q1

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["freq_hz", "alpha_q1", "alpha_q3", "alpha_nominal"])
            for f, a, b, n in zip(self.freqs_hz, self.q1, self.q3, self.nominal):
                writer.writerow([repr(float(f)), repr(float(a)), repr(float(b)), repr(float(n))])

    @classmethod
    def from_csv(cls, path) -> "QuartileBand":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                rows.append([float(x) for x in row])
        arr = np.array(rows)
        return cls(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])


def draw_parameter_factors(seed: int, index: int, rel_std: float) -> np.ndarray:
    """Multiplicative Gaussian factors for draw `index`.

    Each draw uses its own RNG stream keyed by (seed, index), so a draw does
    not depend on how many others are made or in which order.  Draws
    yielding any non-positive factor are rejected and redrawn within the
    same stream.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    factors = rng.normal(1.0, rel_std, 5)
    while np.any(factors <= 0.0):
        factors = rng.normal(1.0, rel_std, 5)
    return factors


def monte_carlo_absorption(
    model: DriverModel,
    target: TargetSpec,
    fb: FeedbackSpec,
    cfg: MonteCarloConfig,
) -> QuartileBand:
    """Quartile band of achieved absorption under random estimation errors.

    The five estimated parameters (rss, omega0, qms, pressure factor, box
    compliance) are independently perturbed by multiplicative Gaussian
    factors N(1, rel_std^2) in every draw.  With P the estimate vectors of a
    block of draws, the mismatch kernel gives the reflection coefficients
    as (P @ (N - rho0*c0*D)) / (P @ (N + rho0*c0*D)).  Deterministic for a
    fixed seed.
    """
    freqs = np.asarray(cfg.freqs_hz, dtype=float)
    s = 2j * np.pi * freqs
    num, den = _mismatch_kernel(model, target, fb, s)
    rc = model.air.characteristic_impedance
    gamma_num = num - rc * den
    gamma_den = num + rc * den

    factors = np.empty((cfg.n_draws, 5))
    for i in range(cfg.n_draws):
        factors[i] = draw_parameter_factors(cfg.seed, i, cfg.rel_std)
    true_values = np.array([model.rss, model.omega0, model.qms, model.pressure_factor, model.csb])
    alpha = np.empty((cfg.n_draws, freqs.size))
    # blocks bound the complex temporaries to 256 draws at a time
    block = 256
    for lo in range(0, cfg.n_draws, block):
        p = _estimate_vector(model, *(true_values * factors[lo : lo + block]).T)
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma = (p @ gamma_num) / (p @ gamma_den)
        alpha[lo : lo + block] = 1.0 - np.abs(gamma) ** 2

    # Hyndman-Fan type 7 (numpy's default linear interpolation), partitioning
    # alpha in place rather than a copy of it
    q1, q3 = np.quantile(alpha, [0.25, 0.75], axis=0, method="linear", overwrite_input=True)
    nominal = absorption_coefficient(target_impedance(target)(s), model.air)
    return QuartileBand(freqs_hz=freqs, q1=q1, q3=q3, nominal=nominal)
