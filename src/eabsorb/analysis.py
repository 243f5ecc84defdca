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
log-derivatives, and `monte_carlo_absorption` evaluates the absorption of
a block of draws from the squared magnitudes of four real matrix products.
The estimate vectors are real, so Re(p @ N) = p @ Re(N): the real and
imaginary parts of the reflection coefficient's numerator and denominator
are real products, and alpha = 1 - |num|^2 / |den|^2 needs no complex
arithmetic.  The quartiles of each frequency's draws are read straight off
an in-place sort of its row of draws: Hyndman-Fan type 7 on sorted data is
two indexed reads and one interpolation per quartile.

Monte Carlo draw i of a study with seed `seed` is, bit for bit,

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
    factors = rng.normal(1.0, rel_std, 5)   # again while any factor <= 0

so a draw depends only on (seed, i), not on the draw count or order.
Building those objects per draw would cost more than the study's kernel, so
`_draw_factors` reproduces them for a whole block of draws at once.  The
hash of the seed words is numpy's own `SeedSequence(seed).pool`, shared by
every draw; only the last round, which mixes in the spawn word i, and the
output hash run here, on uint32 arrays over the block.  Each draw's words then
become the PCG64 (state, inc) that PCG64 would seed itself with, and one
reused PCG64 is set to it before the real `Generator.normal` is called.
Both seeding algorithms are fixed: numpy's SeedSequence hash (stable under
NEP 19) and PCG64's seeding step (O'Neill, "PCG", HMC-CS-2014-0905,
`pcg_setseq_128_srandom_r`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csvio import read_columns, write_columns
from .errors import InvalidParameterError, check_frequencies, is_integer
from .model import AirProperties, DriverModel, passive_impedance
from .synthesis import FeedbackSpec, TargetSpec, feedback_filter, target_impedance

#: denominator magnitudes at or below this absolute value are flagged as
#: singular evaluation frequencies.  It catches exact zeros and values near
#: underflow only; it is not a relative conditioning test, since a small but
#: normal denominator still gives a finite, if large, impedance
SINGULAR_TOL = 1e-300

#: indices of Monte Carlo draws must fit one SeedSequence spawn word
MAX_DRAWS = 2**32

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy SeedSequence hash constants
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# blocks bound the draws' seed words and the kernel temporaries of a study
_DRAW_BLOCK = 256


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
    `_mismatch_kernel`) raises OverflowError.
    """
    num, den = _mismatch_kernel(model, target, fb, 1j * np.asarray(omega, dtype=float))
    p = _assumed_vector(model, estimate)
    den_p = p @ den
    with np.errstate(divide="ignore", invalid="ignore"):
        zsa = (p @ num) / den_p
    return np.where(np.abs(den_p) <= SINGULAR_TOL, np.inf + 0j, zsa)


@dataclass(frozen=True)
class SensitivityTriple:
    """Logarithmic sensitivities of the achieved impedance, per frequency."""

    s_zss: np.ndarray
    s_f: np.ndarray
    s_csb: np.ndarray

    @property
    def singular(self) -> np.ndarray:  # frequencies where a sensitivity is not finite
        return ~(np.isfinite(self.s_zss) & np.isfinite(self.s_f) & np.isfinite(self.s_csb))


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
    num, den = _mismatch_kernel(model, target, fb, 1j * np.asarray(omega, dtype=float))
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


@dataclass(frozen=True)
class MonteCarloConfig:
    n_draws: int
    rel_std: float
    seed: int
    freqs_hz: np.ndarray = field(default_factory=default_frequency_grid)

    def __post_init__(self):
        _check_seed(self.seed)
        if not 1 <= self.n_draws <= MAX_DRAWS:
            raise InvalidParameterError(f"n_draws must be in [1, {MAX_DRAWS}]")
        if not (0.0 <= self.rel_std < 0.2):
            raise InvalidParameterError("rel_std must be in [0, 0.2)")
        if check_frequencies(self.freqs_hz, "freqs_hz").ndim != 1:
            raise InvalidParameterError("freqs_hz must be a 1-D array")


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
        columns = [self.freqs_hz, self.q1, self.q3, self.nominal]
        write_columns(path, ["freq_hz", "alpha_q1", "alpha_q3", "alpha_nominal"], columns)

    @classmethod
    def from_csv(cls, path) -> "QuartileBand":
        return cls(*read_columns(path, 4))


def _check_seed(seed) -> None:
    if not is_integer(seed) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")


def _hash_constants(init: int, mult: int):
    """Successive (old, new) hash constants of one SeedSequence hash pass."""
    while True:
        new = (init * mult) & _MASK32
        yield init, new
        init = new


def _hashmix(value, consts):
    # value is a uint32 array, whose arithmetic wraps mod 2**32
    old, new = next(consts)
    value = ((value ^ old) * new) & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    value = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's entropy pool after every entropy word but the spawn
    word, and the hash constant it has reached, for `SeedSequence(seed,
    spawn_key=(i,))`: the pool is `SeedSequence(seed).pool`, and its hash
    took 4*w steps for w = max(4, seed words): one per pool slot, 12 for
    the cross-mix and 4 per word past the fourth."""
    pool = tuple(int(word) for word in np.random.SeedSequence(seed).pool)
    words = max(4, -(-seed.bit_length() // 32))
    return pool, _HASH_INIT_A * pow(_HASH_MULT_A, 4 * words, 1 << 32) & _MASK32


def _pcg64_seeds(seed: int, index) -> list[tuple[int, int]]:
    """PCG64(SeedSequence(seed, spawn_key=(i,))) as (state, inc) for each i
    of `index`, a uint32 array.

    This finishes SeedSequence's mix_entropy with the spawn word i and runs
    its generate_state(4, uint64), on all draws at once.
    """
    pool, hash_const = _seed_pool(int(seed))
    consts = _hash_constants(hash_const, _HASH_MULT_A)
    pool = [_mix(word, _hashmix(index, consts)) for word in pool]
    consts = _hash_constants(_HASH_INIT_B, _HASH_MULT_B)
    words = np.array([_hashmix(pool[k % 4], consts) for k in range(8)], dtype=np.uint32)
    seeds = []
    for w in words.reshape(8, -1).T.tolist():
        # generate_state(4, uint64) pairs its uint32 words little-endian;
        # PCG64 takes words 0-1 as the initial state and 2-3 as the sequence
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = (initseq << 1 | 1) & _MASK128
        seeds.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return seeds


def _draw_factors(seed: int, lo: int, hi: int, rel_std: float) -> np.ndarray:
    """Factors of draws lo, ..., hi - 1 (one row each) of the stream
    contract in the module docstring."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    seeds = _pcg64_seeds(seed, np.arange(lo, hi, dtype=np.uint32))

    def stream(k: int) -> np.random.Generator:
        state, inc = seeds[k]
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    factors = np.array([stream(k).normal(1.0, rel_std, 5) for k in range(hi - lo)])
    # a rejected draw is made again, then redrawn where its stream left off
    for k in np.flatnonzero(np.any(factors <= 0.0, axis=1)):
        row = stream(k).normal(1.0, rel_std, 5)
        while np.any(row <= 0.0):
            row = gen.normal(1.0, rel_std, 5)
        factors[k] = row
    return factors


def draw_parameter_factors(seed: int, index: int, rel_std: float) -> np.ndarray:
    """Multiplicative Gaussian factors for draw `index`.

    Each draw uses its own RNG stream keyed by (seed, index), so a draw does
    not depend on how many others are made or in which order: it equals
    `np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    .normal(1.0, rel_std, 5)`, bit for bit.  Draws yielding any non-positive
    factor are rejected and redrawn within the same stream.  The seed must
    be a non-negative integer and the index an integer in [0, 2**32).
    Monte Carlo studies make the same draws a block at a time.
    """
    _check_seed(seed)
    if not is_integer(index) or not 0 <= index < MAX_DRAWS:
        raise InvalidParameterError(
            f"draw index must be an integer in [0, {MAX_DRAWS}), got {index!r}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(int(index),)))
    factors = rng.normal(1.0, rel_std, 5)
    while np.any(factors <= 0.0):
        factors = rng.normal(1.0, rel_std, 5)
    return factors


def _row_quartiles(alpha: np.ndarray) -> np.ndarray:
    """First and third quartiles of each row of `alpha`, which is sorted in
    place; returned as a (2, n_rows) array.

    Hyndman-Fan type 7 by numpy's own rule: the virtual index (n - 1)*q,
    its floor and the next index (both the last element once the virtual
    index reaches n - 1), and numpy's two-sided lerp between the two.  On
    sorted rows that is two indexed reads and one interpolation per row, no
    second selection pass.  The order statistics are the same values, so
    the quartiles are the bytes `np.quantile` gives on the unsorted rows,
    with the same floating-point warnings, and a row with a NaN gives its
    NaN.  Only the order of values that compare equal but differ in bits
    (-0.0 and 0.0, NaN payloads) is left to each algorithm.
    """
    alpha.sort(axis=1)
    n = alpha.shape[1]
    virtual = (n - 1) * np.array([0.25, 0.75])
    lower = np.floor(virtual)
    upper = lower + 1.0
    last = virtual >= n - 1
    lower[last] = upper[last] = -1.0
    gamma = (virtual - lower)[:, None]
    a = alpha[:, lower.astype(np.intp)].T
    b = alpha[:, upper.astype(np.intp)].T
    # numpy's lerp: from below where gamma < 0.5, from above elsewhere
    d = b - a
    q = a + d * gamma
    np.subtract(b, d * (1.0 - gamma), out=q, where=gamma >= 0.5)
    # a NaN sorts last, and a row holding one gives it
    np.copyto(q, alpha[:, -1], where=np.isnan(alpha[:, -1]))
    return q


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
    as (P @ (N - rho0*c0*D)) / (P @ (N + rho0*c0*D)).  P is real, so the
    absorption 1 - |Gamma|^2 is 1 - (a_re^2 + a_im^2) / (b_re^2 + b_im^2)
    with a_re = P @ Re(N - rho0*c0*D) and so on: four real products, two
    per block, written straight into a frequency-major array.  Each
    frequency's row of draws is then sorted in place and its quartiles
    (Hyndman-Fan type 7) read off the sorted row, the bytes `np.quantile`
    gives on the unsorted draws.  Deterministic for a fixed seed, whatever the
    BLAS thread count.
    """
    freqs = np.asarray(cfg.freqs_hz, dtype=float)
    s = 2j * np.pi * freqs
    num, den = _mismatch_kernel(model, target, fb, s)
    rc = model.air.characteristic_impedance
    gamma_num = num - rc * den
    gamma_den = num + rc * den
    # rows [Re, Im] of the numerator coefficients, then [Re, Im] of the
    # denominator's, one frequency each
    n = freqs.size
    parts = [gamma_num.real, gamma_num.imag, gamma_den.real, gamma_den.imag]
    parts = np.ascontiguousarray(np.concatenate(parts, axis=1).T)

    true_values = np.array([model.rss, model.omega0, model.qms, model.pressure_factor, model.csb])
    # one row per frequency, so that the quantiles run along contiguous draws
    alpha = np.empty((n, cfg.n_draws))
    for lo in range(0, cfg.n_draws, _DRAW_BLOCK):
        hi = min(lo + _DRAW_BLOCK, cfg.n_draws)
        factors = _draw_factors(cfg.seed, lo, hi, cfg.rel_std)
        p_t = _estimate_vector(model, *(true_values * factors).T).T
        # two products rather than one (4n, m) product bound the peak memory
        a = parts[: 2 * n] @ p_t
        b = parts[2 * n :] @ p_t
        a *= a
        b *= b
        a[:n] += a[n:]
        b[:n] += b[n:]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(a[:n], b[:n], out=a[:n])
        np.subtract(1.0, a[:n], out=alpha[:, lo:hi])

    q1, q3 = _row_quartiles(alpha)
    nominal = absorption_coefficient(target_impedance(target)(s), model.air)
    return QuartileBand(freqs_hz=freqs, q1=q1, q3=q3, nominal=nominal)
