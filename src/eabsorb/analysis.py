"""Robustness analysis: achieved impedance under model mismatch, analytic
sensitivities, absorption coefficients and the Monte-Carlo quartile study.

All three mismatch results come from one kernel.  The achieved impedance

    Z_sa = Zst * (G*Csb_hat/Csb + Zss*F_hat/F)
               / (G + Zss_hat + Zst*(F_hat/F - 1))

is linear-fractional in the estimate vector
p = [1, Csb_hat/Csb, F_hat/F, R_hat, M_hat, K_hat], where
Zss_hat = R_hat + M_hat*s + K_hat/s, M_hat = R_hat*Q_hat/w0_hat and
K_hat = R_hat*Q_hat*w0_hat.  The hatted values are the parameters of the
plant the controller assumes: a `DriverModel` in the true model's air, such
as `model.scaled(pressure_factor=0.95)`.  `_mismatch_kernel` returns the
per-frequency coefficient arrays N and D with Z_sa = (p @ N) / (p @ D):
`achieved_impedance` evaluates that ratio, `sensitivities` are its
log-derivatives, and `monte_carlo_absorption` evaluates the reflectance
|Gamma|^2 of every draw from the squared magnitudes of four real matrix
products.  The estimate vectors are real, so Re(p @ N) = p @ Re(N): the
real and imaginary parts of the reflection coefficient's numerator and
denominator are real products, and r = |num|^2 / |den|^2 needs no complex
arithmetic.  A study makes all its draws first, then splits the frequency
grid into two contiguous halves: the calling thread takes one and a helper
thread the other, as numpy releases the GIL in the products, ufuncs and
sorts that make up the work.  Each half takes one frequency at a time in
its own (4, n_draws) buffer: one (4, 6) product against every draw, the
ratio r, and an in-place sort of the frequency's ratios.  Of each sorted
row it keeps the five order statistics the quartiles read: alpha = 1 - r
falls as r rises, so the quartiles of alpha are read mirrored off the
sorted r, and 1 - r is taken of those order statistics alone.
Hyndman-Fan type 7 on sorted data is two indexed reads and one
interpolation per quartile, taken once over the whole grid when both
halves are done.

Monte Carlo draws of a study with seed `seed` all read one PCG64 stream,

    bitgen = np.random.PCG64(np.random.SeedSequence(seed))

six raw outputs at a time.  Attempt j of draw i takes the six outputs from
6*(j*2**32 + i) on (`bitgen.advance` skips to them) as
u = ((raw >> 11) + 1) * 2**-53 in (0, 1], and turns them into the Box-Muller
normals (Box & Muller, Ann. Math. Stat. 29(2), 1958) rad_k * cos(theta_k)
for k = 0, 1, 2 and rad_k * sin(theta_k) for k = 0, 1, with
rad_k = sqrt(-2 ln u_k) and theta_k = 2*pi * u_(3+k); the sixth normal,
rad_2 * sin(theta_2), is not used.  The factors are 1 + rel_std * z of the
first attempt whose five factors are all positive.  A draw depends only on
(seed, i), not on the draw count or order, and the contract rests only on
what NEP 19 keeps stable: numpy's SeedSequence and the raw PCG64 stream.
The last bits of a normal are those of numpy's log, sqrt, cos and sin on
the platform, as the study's products are those of its BLAS.
`_draw_factors` makes every draw: a block of draws from one run of the
stream, whose rare rejected draws it remakes as blocks of one draw from
their next attempt.  A study takes its draws a block at a time, and
`draw_parameter_factors` is a block of one.  `_box_muller` gives a draw
the same bytes whatever the block width.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, field

import numpy as np

from ._csvio import read_columns, write_columns
from .errors import (
    InvalidParameterError,
    check_count,
    check_frequencies,
    check_number,
    check_positive,
)
from .model import AirProperties, DriverModel, passive_impedance
from .synthesis import FeedbackSpec, TargetSpec, feedback_filter, target_impedance

__all__ = [
    "MonteCarloConfig", "QuartileBand", "SensitivityTriple", "absorption_coefficient",
    "achieved_impedance", "default_frequency_grid", "monte_carlo_absorption",
    "reflection_coefficient", "sensitivities",
]

#: denominator magnitudes at or below this absolute value are flagged as
#: singular evaluation frequencies.  It catches exact zeros and values near
#: underflow only; it is not a relative conditioning test, since a small but
#: normal denominator still gives a finite, if large, impedance
SINGULAR_TOL = 1e-300

#: the most draws a study makes, and the stride between a draw's attempts:
#: attempt j of draw i reads the six outputs from 6*(j*MAX_DRAWS + i) on of
#: its seed's stream, so no two attempts of any draws share an output
MAX_DRAWS = 2**32

# draws are made a block at a time, which bounds their raw and factor arrays
_DRAW_BLOCK = 4096
# the most draws one of a study's products takes: a longer product is taken
# in equal column blocks, each too small for OpenBLAS to split across its
# threads, which would compete with the study's own two
_PRODUCT_COLUMNS = 16384


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
    estimate vector p of `_estimate_vector`.  Raises OverflowError if an
    entry of N or D is not finite (the target impedance or its products
    beyond the float64 range), so no study runs on overflowed coefficients.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        zst = target_impedance(target)(s)
        g = feedback_filter(model, fb)(s)
        zss = passive_impedance(model)(s)
        zero = np.zeros_like(s)
        num = np.array([zero, zst * g, zst * zss, zero, zero, zero])
        den = np.array([g - zst, zero, zst, np.ones_like(s), s, 1.0 / s])
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise OverflowError("mismatch kernel coefficients overflow float64")
    return num, den


def _assumed_vector(model: DriverModel, estimate: DriverModel) -> np.ndarray:
    """The estimate vector p of a controller designed from `estimate`; the
    kernel has one medium, so `estimate` must assume the model's air."""
    if estimate.air != model.air:
        raise InvalidParameterError("the estimate must assume the same air as the model")
    e = estimate
    return _estimate_vector(model, e.rss, e.omega0, e.qms, e.pressure_factor, e.csb)


def achieved_impedance(
    model: DriverModel,
    estimate: DriverModel,
    target: TargetSpec,
    fb: FeedbackSpec,
    omega,
):
    """Impedance Z_sa actually presented when the controller is designed
    from the assumed plant `estimate` (for instance `model.scaled(...)`).

    Singular evaluation frequencies (vanishing denominator) are returned as
    inf, never raised.  A kernel that overflows float64 (see
    `_mismatch_kernel`) raises OverflowError, and an `omega` that is not
    positive and finite raises InvalidParameterError.
    """
    num, den = _mismatch_kernel(model, target, fb, 1j * check_frequencies(omega, "omega"))
    p = _assumed_vector(model, estimate)
    den_p = p @ den
    with np.errstate(divide="ignore", invalid="ignore"):
        zsa = (p @ num) / den_p
    return np.where(np.abs(den_p) <= SINGULAR_TOL, np.inf, zsa)


@dataclass(frozen=True, eq=False)
class SensitivityTriple:
    """Logarithmic sensitivities of the achieved impedance, per frequency."""

    s_zss: np.ndarray
    s_f: np.ndarray
    s_csb: np.ndarray


def sensitivities(
    model: DriverModel,
    estimate: DriverModel,
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
    num, den = _mismatch_kernel(model, target, fb, 1j * check_frequencies(omega, "omega"))
    p = _assumed_vector(model, estimate)
    with np.errstate(divide="ignore", invalid="ignore"):
        num_p = p @ num
        den_p = p @ den
        s_zss = -(p[3:] @ den[3:]) / den_p
        s_f = p[2] * (num[2] / num_p - den[2] / den_p)
        s_csb = p[1] * num[1] / num_p
    return SensitivityTriple(s_zss=s_zss, s_f=s_f, s_csb=s_csb)


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


@dataclass(frozen=True, eq=False)
class MonteCarloConfig:
    """`n_draws` draws (an integer from 1 to MAX_DRAWS) of spread `rel_std` (a
    number in [0, 0.2)) from the stream of `seed` (a non-negative integer), on
    the positive and finite `freqs_hz` (`errors.check_count`, `check_number`)."""

    n_draws: int
    rel_std: float
    seed: int
    freqs_hz: np.ndarray = field(default_factory=default_frequency_grid)

    def __post_init__(self):
        check_count(self.seed, "seed", allow_zero=True)
        if check_count(self.n_draws, "n_draws") > MAX_DRAWS:
            raise InvalidParameterError(f"n_draws must be at most {MAX_DRAWS}, got {self.n_draws}")
        check_positive(self, "rel_std", allow_zero=True)
        if self.rel_std >= 0.2:
            raise InvalidParameterError(f"rel_std must be in [0, 0.2), got {self.rel_std!r}")
        freqs = check_frequencies(self.freqs_hz, "freqs_hz")
        if freqs.ndim != 1:
            raise InvalidParameterError("freqs_hz must be a 1-D array")
        # a read-only copy: the caller's later writes cannot undo the checks
        freqs.flags.writeable = False
        object.__setattr__(self, "freqs_hz", freqs)


@dataclass(frozen=True, eq=False)
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
        columns = [self.freqs_hz, self.q1, self.q3, self.nominal]
        write_columns(path, ["freq_hz", "alpha_q1", "alpha_q3", "alpha_nominal"], columns)

    @classmethod
    def from_csv(cls, path) -> "QuartileBand":
        return cls(*read_columns(path, 4))


def _box_muller(raw) -> np.ndarray:
    """The five used Box-Muller normals of the stream contract (module
    docstring) from a (6, n) uint64 array of raw outputs, one attempt per
    column; returned as a (5, n) array.

    Every ufunc works on contiguous rows, on which numpy's loops give each
    element the value a one-column call gives it, so a column's values do
    not depend on n; a strided view could take another loop.
    """
    u = (raw >> 11) + 1
    u = u * 2.0**-53  # exact: u is at most 2**53
    rad = np.log(u[:3])
    rad *= -2.0
    np.sqrt(rad, out=rad)
    theta = u[3:]
    theta *= 2.0 * np.pi
    z = np.empty((5, raw.shape[1]))
    np.cos(theta, out=z[:3])
    z[:3] *= rad
    np.sin(theta[:2], out=z[3:])
    z[3:] *= rad[:2]
    return z


def _draw_factors(seed: int, lo: int, hi: int, rel_std: float, attempt: int = 0) -> np.ndarray:
    """Factors of draws lo, ..., hi - 1 (one row each) of the stream
    contract in the module docstring, from attempt `attempt` on.  The
    block's attempts are one run of the stream; a draw with a factor at or
    below zero is remade as a block of one draw from its next attempt."""
    bitgen = np.random.PCG64(np.random.SeedSequence(int(seed)))
    bitgen.advance(6 * (attempt * MAX_DRAWS + int(lo)))  # advance refuses numpy integers
    # one attempt per column, with contiguous rows for _box_muller
    raw = np.ascontiguousarray(bitgen.random_raw(6 * (hi - lo)).reshape(hi - lo, 6).T)
    factors = _box_muller(raw)
    factors *= rel_std
    factors += 1.0
    for k in np.flatnonzero(np.any(factors <= 0.0, axis=0)):
        factors[:, k] = _draw_factors(seed, lo + k, lo + k + 1, rel_std, attempt + 1)[0]
    return factors.T


def draw_parameter_factors(seed: int, index: int, rel_std: float) -> np.ndarray:
    """Multiplicative Gaussian factors for draw `index`.

    A draw depends only on (seed, index), not on how many others are made
    or in which order.  Its five factors are 1 + rel_std * z for the
    Box-Muller normals z of raw outputs 6*i, ..., 6*i + 5 of
    `np.random.PCG64(np.random.SeedSequence(seed))`, for i = index; a draw
    yielding any non-positive factor is rejected and made again from the
    six outputs at i = j * 2**32 + index of its attempt j = 1, 2, ...  The
    contract (module docstring) rests only on numpy's NEP-19-stable
    SeedSequence and raw PCG64 stream, not on `Generator`'s samplers.  The
    seed is a non-negative integer, the index an integer in [0, 2**32) and
    rel_std a non-negative number (`errors.check_count`,
    `errors.check_number`).  `_draw_factors` makes it as a block of one,
    as it makes a Monte Carlo study's draws a block at a time.
    """
    check_count(seed, "seed", allow_zero=True)
    rel_std = check_number(rel_std, "rel_std", allow_zero=True)
    if check_count(index, "draw index", allow_zero=True) >= MAX_DRAWS:
        raise InvalidParameterError(f"draw index must be below {MAX_DRAWS}, got {index!r}")
    return _draw_factors(seed, index, index + 1, rel_std)[0]


def _quartile_rule(n: int):
    """Hyndman-Fan type 7, by numpy's own rule, of alpha = 1 - r on a row of
    n ratios r = |Gamma|^2 sorted in ascending order.

    Returns the indices into the sorted row of the five order statistics the
    first and third quartiles read, [lower q1, lower q3, upper q1, upper q3]
    of alpha and the last r, and the weights of their lerp.  The virtual
    index is (n - 1)*q, the lower index its floor and the upper index the
    next; at n = 1 the upper index, 1, mirrors to -1, the one element.
    1 - r falls as r rises and rounding is monotone, so the k-th smallest
    alpha is 1 - (the k-th largest r), at index n - 1 - k of the sorted row.
    The last r is read because a NaN sorts last and a row holding one gives
    it; the mirrored index, the first, would hide it.
    """
    virtual = (n - 1) * np.array([0.25, 0.75])
    lower = np.floor(virtual)
    upper = lower + 1.0
    # alpha's index k is r's n - 1 - k
    mirrored = n - 1 - np.concatenate([lower, upper])
    index = np.append(mirrored, n - 1).astype(np.intp)
    return index, virtual - lower


def _lerp_quartiles(stats: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """First and third quartiles of alpha = 1 - r, as a (2, n_rows) array,
    of the (n_rows, 5) order statistics of r and the weights of
    `_quartile_rule`.  The first four columns of `stats` are overwritten
    with their alpha: a temporary here left heap holes between the bands a
    caller keeps, 1.9 KB of resident memory per default-grid band.

    On a row without NaN they are the bytes `np.quantile` gives on the
    unsorted 1 - r, with the same floating-point warnings; a row with a NaN
    gives its NaN (its other order statistics are shifted by its NaNs, so
    the lerp's warnings may differ there).  Only the order of NaN payloads
    is left to each algorithm.
    """
    alpha = np.subtract(1.0, stats[:, :4], out=stats[:, :4])
    a, b = alpha[:, :2].T, alpha[:, 2:].T
    gamma = gamma[:, None]
    # numpy's lerp: from below where gamma < 0.5, from above elsewhere
    d = b - a
    q = a + d * gamma
    np.subtract(b, d * (1.0 - gamma), out=q, where=gamma >= 0.5)
    np.copyto(q, stats[:, 4], where=np.isnan(stats[:, 4]))
    return q


def _reflectance_row(parts: np.ndarray, i: int, views: tuple) -> np.ndarray:
    """|Gamma|^2 = (a_re^2 + a_im^2) / (b_re^2 + b_im^2) of every draw at
    frequency i, in the first row of a (4, n) buffer x.  `views` are, made
    once per buffer, the (p, x) column blocks of the product, then x, x[:2],
    x[2:], x[0] and x[1]; the rows of x are [a_re, b_re, a_im, b_im] =
    parts[i] @ p, so that one sum of contiguous halves adds the squares."""
    blocks, x, re2, im2, num, den = views
    for p_block, x_block in blocks:
        np.matmul(parts[i], p_block, out=x_block)
    np.multiply(x, x, out=x)
    np.add(re2, im2, out=re2)
    return np.divide(num, den, out=num)


def monte_carlo_absorption(
    model: DriverModel,
    target: TargetSpec,
    fb: FeedbackSpec,
    cfg: MonteCarloConfig,
) -> QuartileBand:
    """Quartile band of achieved absorption under random estimation errors.

    The five estimated parameters (rss, omega0, qms, pressure factor, box
    compliance) are independently perturbed by multiplicative Gaussian
    factors N(1, rel_std^2) in every draw.  The study first fills the
    (6, n_draws) array P of all draws' estimate vectors, a block of draws at
    a time.  With P, the mismatch kernel gives the reflection coefficients
    as (P @ (N - rho0*c0*D)) / (P @ (N + rho0*c0*D)).  P is real, so the
    reflectance |Gamma|^2 is r = (a_re^2 + a_im^2) / (b_re^2 + b_im^2)
    with a_re = P @ Re(N - rho0*c0*D) and so on: four real products.  The
    frequency grid is split into two contiguous halves, one taken by the
    calling thread and one by a helper thread that runs in a copy of the
    caller's context, so numpy's error state holds in both; an error raised
    in the helper's half is raised here.  Each half takes one frequency at a
    time, as one (4, 6) @ P product (in column blocks of at most
    `_PRODUCT_COLUMNS` draws), and sorts its row of ratios r in place.  The
    absorption is alpha = 1 - r, which falls as r rises, so the quartiles
    of alpha (Hyndman-Fan type 7) are read mirrored off the sorted r, with
    1 - r taken of the order statistics they read alone: the bytes
    `np.quantile` gives on the unsorted 1 - r.  A study holds 6 + 2*4
    doubles per draw, nothing of size n_freq * n_draws.  Every frequency
    takes the same calls on the same shapes whichever thread runs it, so
    the band is deterministic for a fixed seed, whatever the BLAS thread
    count.
    """
    freqs = np.asarray(cfg.freqs_hz, dtype=float)
    s = 2j * np.pi * freqs
    num, den = _mismatch_kernel(model, target, fb, s)
    rc = model.air.characteristic_impedance
    gamma_num = num - rc * den
    gamma_den = num + rc * den
    # the real parts of the numerator and denominator coefficients, then
    # their imaginary parts: a contiguous (4, 6) matrix per frequency
    parts = np.stack([gamma_num.real, gamma_den.real, gamma_num.imag, gamma_den.imag])
    parts = np.ascontiguousarray(parts.transpose(2, 0, 1))

    # allocated before any draw, so a study too large for memory fails at
    # once.  BLAS rounds a one-column (matrix-vector) product by another
    # rule, which depends on the row count, so a one-draw study repeats its
    # draw and takes the matrix-product path of every other study
    n = max(cfg.n_draws, 2)
    p = np.empty((6, n))
    true_values = np.array([model.rss, model.omega0, model.qms, model.pressure_factor, model.csb])
    for lo in range(0, cfg.n_draws, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, cfg.n_draws)
        factors = _draw_factors(cfg.seed, lo, hi, cfg.rel_std)
        p[:, lo:hi] = _estimate_vector(model, *(true_values * factors).T).T
    p[:, cfg.n_draws :] = p[:, :1]

    # one (4, n) buffer per half, allocated once the draws' temporaries are
    # freed
    buffers = np.empty((2, 4, n))
    index, gamma = _quartile_rule(cfg.n_draws)
    stats = np.empty((freqs.size, index.size))
    blocks = -(-n // _PRODUCT_COLUMNS)
    columns = [slice(n * j // blocks, n * (j + 1) // blocks) for j in range(blocks)]

    def study_rows(rows, x):
        # each frequency's sorted ratios leave only their order statistics;
        # the views are made once, as the loop holds the GIL between calls
        views = ([(p[:, c], x[:, c]) for c in columns], x, x[:2], x[2:], x[0], x[1])
        r = x[0, : cfg.n_draws]
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, out in zip(rows, stats[rows.start : rows.stop]):
                _reflectance_row(parts, i, views)
                r.sort()
                out[:] = r[index]  # np.take(..., out=out) is slower here

    half = (freqs.size + 1) // 2
    errors = []

    def upper_half():
        try:
            study_rows(range(half, freqs.size), buffers[1])
        except BaseException as exc:  # raised in the caller after the join
            errors.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(upper_half,))
    helper.start()
    try:
        study_rows(range(half), buffers[0])
    finally:
        helper.join()
    if errors:
        raise errors[0]

    q1, q3 = _lerp_quartiles(stats, gamma)
    nominal = absorption_coefficient(target_impedance(target)(s), model.air)
    return QuartileBand(freqs_hz=freqs, q1=q1, q3=q3, nominal=nominal)
