"""Discrete-time controller realization and the exact sampled closed loop.

The two control filters are discretized at a fixed sample rate and factored
into second-order sections for numerical robustness; each filter is an
immutable array of section coefficients, with no per-sample state.  With the
continuous two-state plant (membrane velocity and displacement), the
controller's integer-sample output latency and the hold that applies each
command, they form one discrete linear time-invariant system.  The plant is
discretized exactly: its half-period exponential and hold integral have a
closed form (the Cayley-Hamilton form of the exponential of the driver's
mass-spring-damper) and the sine excitation is integrated in closed form
between ticks.  The excitation is the front pressure
p_f(t) = amplitude * sin(2*pi*f_hz*t):
`measure_impedance(model, cascades, loop, f_hz)` solves its steady state at
one frequency or a whole band, and `closed_loop_sim(model, cascades, loop,
f_hz, amplitude)` propagates it from rest a block of ticks at a time, through
precomputed powers of the loop matrix and forced responses.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._csvio import write_columns
from .errors import (
    DiscretizationError,
    DivergenceError,
    InvalidParameterError,
    as_float,
    check_count,
    check_frequencies,
    check_nonzero,
    check_number,
    check_positive,
)
from .model import DriverModel
from .rational import RationalTransfer

__all__ = [
    "LoopConfig", "SosCascade", "bilinear_discretize", "closed_loop_sim", "measure_impedance",
    "sos_partition",
]

#: state norm (relative to the running input scale) that triggers the
#: divergence error in closed-loop simulation
DIVERGENCE_FACTOR = 1e9

# most ticks per block of closed-loop simulation: `closed_loop_sim` advances
# the loop and checks it for divergence a block at a time
_CHECK_TICKS = 1024

# most entries per signal row of the block table of `closed_loop_sim`:
# (ticks per block) x (loop states), 1.5 MB for its three rows
_TABLE_ENTRIES = 2**16

#: smallest ratio of the two singular values of the cos/sin basis that
#: `SimulationResult.measured_impedance` fits: at a multiple of fs/2 the
#: sampled sine vanishes and the ratio falls to rounding level (~1e-11)
FIT_RATIO_MIN = 1e-8

#: largest latency in samples: the sampled loop has one state per latency
#: sample in a dense matrix, so its memory grows as the latency squared
MAX_LATENCY = 1000

#: relative size of an imaginary part below which a root counts as real,
#: and of the mismatch allowed between a root and its conjugate
PAIR_TOL = 100 * np.finfo(float).eps

#: the section row of H(z) = 1
_PASSTHROUGH = (1.0, 0.0, 0.0, 0.0, 0.0)

#: JSON keys of the five numbers of a section row
_SOS_KEYS = ("b0", "b1", "b2", "a1", "a2")


@dataclass(frozen=True, eq=False)
class SosCascade:
    """Chain of second-order sections with a scalar gain at its input.

    `sos` is a read-only (n, 5) array of rows (b0, b1, b2, a1, a2), each
    the section (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2).  The
    frequency response is gain times the product of the section responses.
    The sample rate `fs` is a positive number, and the gain and every `sos`
    entry are finite.
    """

    sos: np.ndarray
    gain: float
    fs: float

    def __post_init__(self):
        check_positive(self, "fs")
        sos = np.array(self.sos, dtype=float)
        if sos.ndim != 2 or sos.shape[1] != 5:
            raise InvalidParameterError("sos must be an (n, 5) array of rows (b0, b1, b2, a1, a2)")
        if not np.all(np.isfinite(sos)):
            raise InvalidParameterError("sos entries must be finite")
        gain = as_float(self.gain)
        if not math.isfinite(gain):
            raise InvalidParameterError(f"gain must be finite, got {self.gain!r}")
        sos.flags.writeable = False
        object.__setattr__(self, "sos", sos)
        object.__setattr__(self, "gain", gain)

    @property
    def is_stable(self) -> bool:
        # Jury criterion for each 1 + a1 z^-1 + a2 z^-2
        a1, a2 = self.sos[:, 3], self.sos[:, 4]
        return bool(np.all((np.abs(a2) < 1.0) & (np.abs(a1) < 1.0 + a2)))

    def response(self, freqs_hz) -> np.ndarray:
        """Frequency response at physical frequencies (Hz)."""
        freqs = np.asarray(freqs_hz, dtype=float)
        zi = 1.0 / np.exp(2j * np.pi * freqs / self.fs)
        h = np.full(freqs.shape, self.gain, dtype=complex)
        for b0, b1, b2, a1, a2 in self.sos.tolist():
            h = h * ((b0 + b1 * zi + b2 * zi**2) / (1.0 + a1 * zi + a2 * zi**2))
        return h

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        sections = [dict(zip(_SOS_KEYS, row)) for row in self.sos.tolist()]
        return json.dumps({"fs_hz": self.fs, "gain": self.gain, "sections": sections}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SosCascade":
        d = json.loads(text)
        sos = [[s[key] for key in _SOS_KEYS] for s in d["sections"]]
        return cls(sos, d["gain"], d["fs_hz"])


# -- discretization -----------------------------------------------------------


def _split_conjugates(roots: np.ndarray) -> np.ndarray:
    """One root (positive imaginary part) of each conjugate pair, then the real roots.

    Each group is sorted by real part and then by imaginary magnitude; each
    pair is averaged with its conjugate.
    """
    z = roots[np.lexsort((abs(roots.imag), roots.real))]
    real = abs(z.imag) <= PAIR_TOL * abs(z)
    cplx = z[~real]
    upper, lower = cplx[cplx.imag > 0], cplx[cplx.imag < 0]
    if len(upper) != len(lower):
        raise DiscretizationError("zero/pole pairing failed: a complex root has no conjugate")
    # real parts equal within the tolerance count as equal: order such runs
    # by imaginary magnitude so each root lines up with its conjugate
    same = np.diff(upper.real) <= PAIR_TOL * abs(upper[:-1])
    edges = np.diff(np.concatenate(([0], same, [0])))
    for start, stop in zip(np.flatnonzero(edges > 0), np.flatnonzero(edges < 0) + 1):
        for run in (upper[start:stop], lower[start:stop]):
            run[...] = run[np.argsort(abs(run.imag), kind="stable")]
    if np.any(abs(upper - lower.conj()) > PAIR_TOL * abs(lower)):
        raise DiscretizationError("zero/pole pairing failed: a complex root has no conjugate")
    return np.concatenate([(upper + lower.conj()) / 2, z[real].real])


def _pair_nearest(zeros: np.ndarray, poles: np.ndarray):
    """Group zeros and poles into second-order sections.

    Zeros at the origin pad the zeros to the pole count, and one more pole
    and zero at the origin make an odd count even.  Until no pole is left,
    the pole closest to the unit circle takes its conjugate (or, if real,
    the next real pole closest to the circle), the zero nearest to it and
    that zero's conjugate (or, if real, the next real zero nearest to the
    pole).  Yields (zero pair, pole pair), closest to the unit circle first.
    """
    poles = np.concatenate([poles, np.zeros(len(poles) % 2)])
    zeros = np.concatenate([zeros, np.zeros(len(poles) - len(zeros))])
    p, z = _split_conjugates(poles), _split_conjugates(zeros)
    while p.size:
        i = int(np.argmin(abs(1.0 - abs(p))))
        p1, p = p[i], np.delete(p, i)
        if p1.imag == 0:
            real = np.flatnonzero(p.imag == 0)
            i = int(real[np.argmin(abs(1.0 - abs(p[real])))])
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = p1.conjugate()
        i = int(np.argmin(abs(z - p1)))
        z1, z = z[i], np.delete(z, i)
        if z1.imag == 0:
            real = np.flatnonzero(z.imag == 0)
            i = int(real[np.argmin(abs(z[real] - p1))])
            z2, z = z[i], np.delete(z, i)
        else:
            z2 = z1.conjugate()
        yield (z1, z2), (p1, p2)


def sos_partition(zeros, poles, gain: float, fs: float) -> SosCascade:
    """Factor a z-domain pole/zero/gain triple into second-order sections.

    Conjugate pole pairs are matched with the nearest zeros in the z plane
    (the "nearest" pairing of `scipy.signal.zpk2sos`); sections are ordered
    by ascending pole radius (the section closest to the unit circle runs
    last) and missing zeros in a section are zeros at the origin.  The
    scalar gain stays at the cascade input.
    """
    zeros = np.asarray(zeros, dtype=complex)
    poles = np.asarray(poles, dtype=complex)
    if zeros.size > poles.size:
        raise DiscretizationError("more zeros than poles: filter is not causal")
    if poles.size == 0:
        return SosCascade([_PASSTHROUGH], gain, fs)

    rows = []
    for zs, ps in reversed(list(_pair_nearest(zeros, poles))):
        b0, b1, b2 = (float(x) for x in np.poly(zs).real)
        a0, a1, a2 = (float(x) for x in np.poly(ps).real)
        radius = np.max(np.abs(np.roots([a0, a1, a2]))) if (a1 or a2) else 0.0
        rows.append((radius, (b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0)))
    rows.sort(key=lambda t: t[0])
    return SosCascade([row for _, row in rows], gain, fs)


def _sk_refine(b: np.ndarray, a: np.ndarray, ct: RationalTransfer, fs: float):
    """Iterative weighted least-squares polish of a z-domain fit.

    Keeps the polynomial degrees of the seed, constrains the DC value to
    the exact continuous value, and reweights by the previous denominator
    (Sanathanan-Koerner style) so the effective error norm approaches the
    true relative response error.  The real system [Re; Im] of the fit is
    stacked once; each pass scales its rows by that pass's weights and
    solves it.  If the polish produces an unstable denominator, it stops
    and returns the last stable iterate (the seed if the first one is
    unstable).  A pass depends only on the previous denominator, so the
    polish also stops once a denominator repeats to the bit: every later
    pass would return the same iterate.  Otherwise it runs 30 passes.
    """
    nb, na = len(b) - 1, len(a) - 1
    if na == 0:
        return b, a
    freqs = np.concatenate(
        [np.linspace(1.0, 1300.0, 400), np.geomspace(1300.0, 0.4 * fs, 121)[1:]]
    )
    weight = np.where(freqs <= 1300.0, 100.0, 1.0)
    h = ct(2j * np.pi * freqs)
    h0 = float(ct(0.0))  # real: real coefficients at real s
    if not math.isfinite(h0):
        return b, a  # no finite DC value to pin
    zi = np.exp(-2j * np.pi * freqs / fs)
    zpow_b = np.stack([zi**k for k in range(1, nb + 1)], axis=1)
    zpow_a = np.stack([zi**k for k in range(1, na + 1)], axis=1)
    # unknowns: b1..bnb, a1..ana, with b0 = h0*(1+sum a) - sum b
    cols = np.concatenate([zpow_b - 1.0, h0 - h[:, None] * zpow_a], axis=1)
    mat_ri = np.concatenate([cols.real, cols.imag])
    rhs_ri = np.concatenate([(h - h0).real, h.imag])

    for _ in range(30):
        w = weight / np.maximum(np.abs(np.polyval(a[::-1], zi)), 1e-12)  # A(z^-1)
        w_ri = np.concatenate([w, w])
        sol, _, _, _ = np.linalg.lstsq(mat_ri * w_ri[:, None], rhs_ri * w_ri, rcond=None)
        b_tail, a_tail = sol[:nb], sol[nb:]
        a_new = np.concatenate([[1.0], a_tail])
        if np.any(np.abs(np.roots(a_new)) >= 1.0):
            break
        b = np.concatenate([[h0 * (1.0 + a_tail.sum()) - b_tail.sum()], b_tail])
        if a_new.tobytes() == a.tobytes():
            break  # a fixed point: every later pass would repeat this one
        a = a_new
    return b, a


def bilinear_transform(num, den, fs: float):
    """Coefficients (b, a) of the z-domain map of num(s)/den(s).

    Substitutes s = 2*fs*(z-1)/(z+1), splitting the 2*fs factor as
    sqrt(2*fs) between the two polynomial factors, and normalizes a[0]
    to 1.  Both arrays are in descending powers of z.  The operations and
    their order are those of `scipy.signal.bilinear`, as `np.convolve`,
    scalar products and sums on coefficient arrays (scipy steps them
    through `numpy.polynomial`), so the result is the same to the bit: the
    least-squares refinement amplifies even rounding-level differences in
    its seed.  A leading numerator coefficient of magnitude <= 1e-14 (a
    continuous zero at or near s = 2*fs; scipy drops it, with a warning
    unless it is exactly zero, advancing the filter by a sample) and a
    coefficient beyond float64 raise DiscretizationError.
    """
    num = np.trim_zeros(np.atleast_1d(np.asarray(num)), "f")
    den = np.trim_zeros(np.atleast_1d(np.asarray(den)), "f")
    with np.errstate(over="ignore", invalid="ignore"):
        fac = np.sqrt(float(fs) * 2)
        n = max(len(den), len(num)) - 1
        # powers 0..n of (z + 1) / fac and (z - 1) * fac, in ascending powers of z
        zp1, zm1 = [np.ones(1)], [np.ones(1)]
        for _ in range(n):
            zp1.append(np.convolve(zp1[-1], np.array([1.0, 1.0]) / fac))
            zm1.append(np.convolve(zm1[-1], np.array([-1.0, 1.0]) * fac))
        # numpy.polynomial also drops leading z coefficients that are exactly
        # zero: the denominator's are trimmed here, a numerator's refused below
        bz, az = (
            sum(np.convolve(c * zp1[n - q], zm1[q]) for q, c in enumerate(coef[::-1]))[::-1]
            for coef in (num, den)
        )
        az = np.trim_zeros(az, "f")
        bz, az = bz / az[0], az / az[0]
    if not (np.all(np.isfinite(bz)) and np.all(np.isfinite(az))):
        raise DiscretizationError(f"bilinear coefficients overflow float64 at {float(fs)!r} Hz")
    if abs(bz[0]) <= 1e-14:
        raise DiscretizationError(
            f"badly conditioned numerator: leading z coefficient {float(bz[0])!r} <= 1e-14 "
            "(a zero at or near s = 2*fs)"
        )
    return bz, az


def bilinear_discretize(ct: RationalTransfer, fs: float) -> SosCascade:
    """Map a continuous transfer to a second-order-section cascade at sample rate `fs`.

    The core substitution is s = 2*fs*(z-1)/(z+1) without frequency
    prewarping (`bilinear_transform`); the coefficients are then polished
    by a DC-pinned weighted least-squares fit against the exact continuous
    response (`_sk_refine`), which removes the transform's residual in-band
    magnitude and phase bias while keeping the degrees and the exact DC
    value.  The result is factored through `sos_partition`.
    """
    fs = check_number(fs, "fs")
    if not ct.is_proper:
        raise DiscretizationError("cannot discretize an improper transfer")
    if ct.is_zero or ct.den_degree == 0:
        # a proper transfer with a constant denominator is a constant gain;
        # + 0.0 keeps the zero transfer's gain 0.0, never -0.0
        return SosCascade([_PASSTHROUGH], float(ct.num[0] / ct.den[0]) + 0.0, fs)

    bz, az = _sk_refine(*bilinear_transform(ct.num, ct.den, fs), ct, fs)
    return sos_partition(np.roots(bz / bz[0]), np.roots(az), float(bz[0]), fs)


# -- closed-loop simulation ---------------------------------------------------


@dataclass(frozen=True)
class LoopConfig:
    """Sample-rate, latency, hold and time-grid settings of the loop.

    hold selects how the sampled control current is applied to the
    continuous plant: "centered" holds each command on the sample-period
    window centered on its nominal application instant (no spurious
    half-sample delay), "causal" is a plain zero-order hold over the
    following period.  At latency 0 the centered hold needs the next
    command half a period early; it is computed from the plant state
    predicted one period ahead under the current command.  duration and
    transient set the time grid of `closed_loop_sim` and the part of it
    `SimulationResult.measured_impedance` discards; `measure_impedance`
    ignores them.  latency is a whole number of samples: an `int` or numpy
    integer from 0 to MAX_LATENCY, not a `bool`.
    """

    fs: float = 50_000.0
    latency: int = 1
    hold: str = "centered"
    duration: float = 1.0
    transient: float = 0.5

    def __post_init__(self):
        check_positive(self, "fs", "duration")
        if check_count(self.latency, "latency", allow_zero=True) > MAX_LATENCY:
            raise InvalidParameterError(f"latency must be at most {MAX_LATENCY}, got {self.latency}")
        if self.hold not in ("centered", "causal"):
            raise InvalidParameterError(
                f"hold must be 'centered' or 'causal', got {self.hold!r}"
            )
        check_positive(self, "transient", allow_zero=True)
        if not self.transient < self.duration:
            raise InvalidParameterError(
                f"transient must be below duration, got {self.transient!r} >= {self.duration!r}"
            )

    def time_grid(self, f_hz: float) -> np.ndarray:
        """Tick times k/fs of `closed_loop_sim` at f_hz, each correctly
        rounded, checked for the fit of `SimulationResult.measured_impedance`.

        Raises MemoryError for a grid numpy cannot index, and
        InvalidParameterError if f_hz is not one positive and finite number,
        if fewer than the two ticks the fit needs lie at or after transient,
        or if its cos/sin basis over them is singular: near a multiple of
        fs/2 the sampled sine vanishes (singular-value ratio below FIT_RATIO_MIN).
        """
        f = check_frequencies(f_hz)
        if f.ndim != 0:
            raise InvalidParameterError(f"f_hz must be a single frequency, got {f_hz!r}")
        f_hz = float(f)
        if not self.duration * self.fs < np.iinfo(np.intp).max:  # else numpy raises ValueError
            raise MemoryError(f"numpy cannot index a time grid of {self.duration * self.fs:.3g} ticks")
        t_grid = np.arange(int(round(self.duration * self.fs))) / self.fs
        basis = _fit_basis(t_grid[t_grid >= self.transient], f_hz)
        if len(basis) < 2:
            raise InvalidParameterError("fewer than 2 ticks of the time grid lie at or after transient")
        sv = np.linalg.svd(basis, compute_uv=False)
        if not sv[1] >= FIT_RATIO_MIN * sv[0]:
            raise InvalidParameterError(
                f"f_hz {f_hz!r} cannot be fitted at fs {self.fs!r}: its cos/sin basis over the "
                f"ticks from transient on is singular (singular-value ratio {sv[1] / sv[0]:.3g} "
                f"< {FIT_RATIO_MIN:g}), as at a multiple of fs/2"
            )
        return t_grid


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """Sampled closed-loop trajectories (one row per controller tick)."""

    t: np.ndarray
    pf: np.ndarray  # front excitation pressure (Pa)
    pb: np.ndarray  # cavity pressure (Pa), membrane displacement / Csb
    v: np.ndarray  # membrane velocity (m/s)
    i: np.ndarray  # applied control current (A)
    f_hz: float  # excitation frequency
    transient: float

    def to_csv(self, path) -> None:
        columns = [self.t, self.pf, self.pb, self.i, self.v]
        write_columns(path, ["t_s", "pf_pa", "pb_pa", "i_a", "v_m_per_s"], columns)

    def measured_impedance(self) -> complex:
        """Steady-state impedance p_f/v at the excitation frequency.

        Both signals are least-squares projected onto in-phase and
        quadrature components after discarding the transient.
        """
        keep = self.t >= self.transient
        basis = _fit_basis(self.t[keep], self.f_hz)
        cf, _, _, _ = np.linalg.lstsq(basis, self.pf[keep], rcond=None)
        cv, _, _, _ = np.linalg.lstsq(basis, self.v[keep], rcond=None)
        x_pf = cf[0] - 1j * cf[1]
        x_v = cv[0] - 1j * cv[1]
        return complex(x_pf / x_v)


def _fit_basis(t: np.ndarray, f_hz: float) -> np.ndarray:
    """The (len(t), 2) in-phase and quadrature columns cos(wt), sin(wt)."""
    w = 2.0 * math.pi * f_hz
    return np.stack([np.cos(w * t), np.sin(w * t)], axis=1)


class SampledLoop(NamedTuple):
    """The closed loop driven by p_f(t) = Im(e^{jwt}), one row per tick.

    s[k+1] = F s[k] + b u[k] and the applied current is i[k] = c s[k] +
    d p_f[k].  The state is [v, xi], the states of H1 and of H2, then the
    line of commands not yet applied, oldest first: [y[k-L], ..., y[k-1]]
    of the controller output y at latency L, or (centered hold at latency
    0) the command computed one tick earlier.  Only the real input
    u[k] = [g_v, g_xi, p_f[k], p_f[k+1]] depends on w: g is the sine's exact
    contribution to [v, xi] over the period, from `plant` = (rm, km, b0,
    e^{aT} b, T) of the driver's plant a = [[-rm, -km], [1, 0]], b = [b0, 0]
    (`_plant_step`).
    """

    f: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float
    plant: tuple

    def drive(self, w):
        """z = e^{jwT} and G(w) = b u(w), u[k] = Im(u(w) e^{jw t_k}), at a scalar or 1-D
        angular frequency w: u(w) = [g, 1, z], g = (jwI - a)^-1 (zI - e^{aT}) b in closed form."""
        rm, km, b0, (p0, p1), dt = self.plant
        jw = 1j * w
        z = np.exp(jw * dt)
        r0 = z * b0 - p0
        damped = jw + rm
        det = damped * jw + km
        g_v = (jw * r0 + km * p1) / det
        g_xi = (r0 - damped * p1) / det
        return z, (self.b @ np.array([g_v, g_xi, np.ones_like(z), z])).T


def _plant_step(rm: float, km: float, b0: float, tau: float):
    """Exponential e^{a tau} and hold integral int_0^tau e^{a s} ds b of the
    driver's plant a = [[-rm, -km], [1, 0]], b = [b0, 0], where rm = rss/mss,
    km = ksc/mss and b0 = 1/mss.

    With mu = -rm/2 and delta = sqrt(mu^2 - km), complex so that the
    under-, critically and over-damped cases share one path, Cayley-Hamilton
    gives e^{a tau} = c0 I + c1 (a - mu I), where c0 = e^{mu tau}
    cosh(delta tau) and c1 = e^{mu tau} sinh(delta tau) / delta; sinh(x)/x
    comes from its series at small |x|, so critical damping (delta = 0) is
    exact.

    The hold integral a^-1 (e^{a tau} - I) b equals c1 b + (c0 - 1 - mu c1)
    a^-1 b.  Its scalar is a difference of terms ~ mu tau that cancels to
    -km tau^2 beta ~ -km tau^2 / 2, losing digits at short steps however
    c0 - 1 is formed.  So beta, the divided difference of (e^x - 1)/x at
    the eigenvalues x = (mu +- delta) tau, is summed from its power series,
    sum_{k>=1} h_{k-1} / (k+1)!, whose complete homogeneous polynomials h_j
    of the eigenvalues follow the real recurrence h_j = -rm tau h_{j-1} -
    km tau^2 h_{j-2}.  The integral is then [c1 b0, tau^2 beta b0], with no
    inverse.  The series wants eigenvalues |x| <= 1; a longer step is two
    half steps.
    """
    mu = -0.5 * rm
    delta = cmath.sqrt(mu * mu - km)
    m, d = mu * tau, delta * tau
    if abs(m) + abs(d) > 1.0:
        phi, gam = _plant_step(rm, km, b0, 0.5 * tau)
        return phi @ phi, phi @ gam + gam
    sinhc = 1.0 + d * d / 6.0 if abs(d) < 1e-4 else cmath.sinh(d) / d
    # delta is real or imaginary, so cosh and sinh(x)/x are real
    c0 = math.exp(m) * cmath.cosh(d).real
    c1 = math.exp(m) * sinhc.real * tau
    p = km * tau * tau
    beta, h_prev, h, fact = 0.0, 0.0, 1.0, 1.0
    for k in range(1, 21):  # |h_{k-1}| <= k, so the tail is below 1e-18
        fact *= k + 1
        beta += h / fact
        h_prev, h = h, 2.0 * m * h - p * h_prev
    phi = np.array([[c0 + c1 * mu, -c1 * km], [c1, c0 - c1 * mu]])
    return phi, np.array([c1 * b0, tau * tau * beta * b0])


def _cascade_rows(cascade: SosCascade, x: np.ndarray, states: np.ndarray):
    """One direct-form-II-transposed tick of `cascade` on coefficient rows:
    the output row and the next rows of `states` (two per section, in
    cascade order) for the input row `x`."""
    y = cascade.gain * x
    nxt = np.empty_like(states)
    for j, (b0, b1, b2, a1, a2) in zip(range(0, len(states), 2), cascade.sos.tolist()):
        x = y
        y = b0 * x + states[j]
        nxt[j] = b1 * x - a1 * y + states[j + 1]
        nxt[j + 1] = b2 * x - a2 * y
    return y, nxt


def sampled_loop(
    model: DriverModel, h1: SosCascade, h2: SosCascade, loop: LoopConfig
) -> SampledLoop:
    """Exact discrete model of the plant under the two-input controller.

    Between ticks the plant d/dt [v, xi] = a [v, xi] + b (p_f - Bl/Sd * i),
    a = [[-rss/mss, -ksc/mss], [1, 0]] and b = [1/mss, 0], is integrated
    exactly: e^{a T/2} and the half-period hold integral come from the
    closed form of `_plant_step`, and the sine input enters through g.
    Every signal below is a real row of coefficients over [s[k], g_v, g_xi,
    p_f[k], p_f[k+1]].  Nothing depends on frequency.
    H1 and H2 step on these rows (`_cascade_rows`) and their output joins
    the line of commands: its first is applied now and, under the centered
    hold, its second over the period's second half.
    """
    if h1.fs != loop.fs or h2.fs != loop.fs:
        raise InvalidParameterError("cascade sample rate must match the loop sample rate")
    dt = 1.0 / loop.fs

    rm, km, b0 = model.rss / model.mss, model.ksc / model.mss, 1.0 / model.mss
    phi_half, gam_half = _plant_step(rm, km, b0, 0.5 * dt)
    phi = phi_half @ phi_half
    # current held over the first and over the second half of the period
    gam_first = -model.pressure_factor * (phi_half @ gam_half)
    gam_second = -model.pressure_factor * gam_half

    n1, n2 = 2 * len(h1.sos), 2 * len(h2.sos)
    centered = loop.hold == "centered"
    n_line = loop.latency or int(centered)
    n = 2 + n1 + n2 + n_line
    rows = np.eye(n + 4)
    x, s1, s2, line = np.split(rows[:n], [2, 2 + n1, 2 + n1 + n2])
    g, pf, pf_next = rows[n : n + 2], rows[n + 2], rows[n + 3]

    def plant(u_first, u_second):
        return phi @ x + np.outer(gam_first, u_first) + np.outer(gam_second, u_second) + g

    # at latency 0 the centered hold takes the next command from the next
    # front pressure and the state predicted under the current command
    predict = centered and loop.latency == 0
    pf_in, x_in = (pf_next, plant(line[0], line[0])) if predict else (pf, x)
    y1, s1_next = _cascade_rows(h1, pf_in, s1)
    y2, s2_next = _cascade_rows(h2, x_in[1] / model.csb, s2)
    # the commands not yet applied, oldest first, then this tick's output
    cmds = np.vstack([line, y1 + y2])
    u_now = cmds[0]
    u_next = cmds[1] if centered else u_now
    step = np.vstack([plant(u_now, u_next), s1_next, s2_next, cmds[1:]])
    plant_data = (rm, km, b0, (phi[:, 0] * b0).tolist(), dt)
    # a copy, so the loop does not keep the whole command array alive
    return SampledLoop(step[:, :n], step[:, n:], u_now[:n].copy(), u_now[n + 2], plant_data)


def _block_ticks(states: int, ticks: int) -> int:
    """Ticks per block of `closed_loop_sim` for a loop of `states` states run
    over `ticks` ticks: the largest power of two B up to _CHECK_TICKS whose
    table rows hold at most _TABLE_ENTRIES entries each (B x states) and
    at most 8 per tick of the run.  The second bound keeps the table's
    build, log2(B) squarings of the loop matrix, within a few of the run's
    per-tick steps: a matrix product costs ~states/10 matrix-vector ones.
    """
    b = 1
    while 2 * b <= _CHECK_TICKS and 2 * b * states <= min(_TABLE_ENTRIES, 8 * ticks):
        b *= 2
    return b


def _block_table(dlti: SampledLoop, rows: np.ndarray, w: float, ticks: int):
    """Propagators of a block of `ticks` ticks (a power of two) under the
    drive Im(e^{jw t_k} G), G from `dlti.drive(w)`.

    Returns (rp, rw, p, g): rp[:, j] = rows F^j and rw[:, j] = rows W[j]
    for j < ticks, where W[j] = sum_{i<j} F^{j-1-i} z^i G (z = e^{jwT}) is
    the response from rest after j ticks, then p = F^ticks and g =
    W[ticks].  A complex vector is held as its columns [Re, Im], times z as
    a product by `rot`, so no real matrix is ever copied to complex.
    Doubling builds the table in log2(ticks) steps, with no solve, so an
    unstable F needs no special case: F^{J+j} = F^j F^J and W[J+j] =
    F^j W[J] + z^J W[j].
    """
    z, g = dlti.drive(w)
    p, g = dlti.f, np.stack([g.real, g.imag], axis=1)
    rot = np.array([[z.real, z.imag], [-z.imag, z.real]])
    rp = np.empty((len(rows), ticks, len(p)))
    rw = np.empty((len(rows), ticks, 2))
    rp[:, 0], rw[:, 0] = rows, 0.0
    j = 1
    while j < ticks:
        np.matmul(rp[:, :j], p, out=rp[:, j : 2 * j])
        rw[:, j : 2 * j] = rp[:, :j] @ g + rw[:, :j] @ rot
        g = p @ g + g @ rot
        p = p @ p
        rot, j = rot @ rot, 2 * j
    return rp, rw, p, g


def closed_loop_sim(
    model: DriverModel,
    cascades,
    loop: LoopConfig,
    f_hz: float,
    amplitude: float = 1.0,
) -> SimulationResult:
    """Sample-accurate simulation of the controlled absorber.

    `cascades` is an (H1, H2) pair and the front pressure is the sine
    p_f(t) = amplitude * sin(2*pi*f_hz*t); the loop's latency applies and
    the run starts from rest.  The exact discrete model of `sampled_loop` is
    propagated over loop.duration a block of ticks at a time: from tick
    lo, s[lo + j] = F^j s[lo] + Im(amplitude e^{jw t_lo} W[j]), with the
    powers of F and the responses W from rest of `_block_table`, mapped
    straight to the three reported signals; only the state at each block's
    end is kept.  Each block is checked for divergence before the next.
    Raises InvalidParameterError for an amplitude that is zero or not
    finite (a negative one flips the phase) and for a grid that cannot be
    fitted (`LoopConfig.time_grid`: fewer than two ticks at or after
    loop.transient, or f_hz near a multiple of fs/2), MemoryError for a
    grid numpy cannot index, and DivergenceError, stamped with the time of
    the first tick past the limit, if the state blows up.
    """
    t_grid = loop.time_grid(f_hz)
    f_hz = float(f_hz)
    amplitude = check_nonzero(amplitude, "amplitude")
    dlti = sampled_loop(model, *cascades, loop)
    n, m = len(t_grid), len(dlti.f)
    w = 2.0 * math.pi * f_hz

    pf_all = amplitude * np.sin(w * t_grid)
    pf_scale = max(np.max(np.abs(pf_all)), 1e-30)
    v_limit = DIVERGENCE_FACTOR * pf_scale / model.rss
    # the reported signals v, pb and i - d p_f as rows over the state
    rows = np.zeros((3, m))
    rows[0, 0], rows[1, 1], rows[2] = 1.0, 1.0 / model.csb, dlti.c
    ticks = _block_ticks(m, n)
    out = np.empty((3, n))
    s = np.zeros(m)  # p_f(0) = 0, so every branch starts at rest
    with np.errstate(over="ignore", invalid="ignore"):
        rp, rw, p_block, g_block = _block_table(dlti, rows, w, ticks)
        for lo in range(0, n, ticks):
            hi = min(lo + ticks, n)
            a = amplitude * cmath.exp(1j * w * t_grid[lo])
            im_a = (a.imag, a.real)  # Im(a W) = [Re W, Im W] @ im_a
            block = out[:, lo:hi]
            np.matmul(rp[:, : hi - lo], s, out=block)
            block += rw[:, : hi - lo] @ im_a
            diverged = ~np.isfinite(block[0]) | (np.abs(block[0]) > v_limit)
            if diverged.any():
                time_s = float(t_grid[lo + np.argmax(diverged)])
                raise DivergenceError("closed loop diverged", time_s=time_s)
            s = p_block @ s + g_block @ im_a

    v, pb, i = out
    i += dlti.d * pf_all
    return SimulationResult(
        t=t_grid, pf=pf_all, pb=pb, v=v, i=i, f_hz=f_hz, transient=loop.transient
    )


def measure_impedance(model: DriverModel, cascades, loop: LoopConfig, f_hz) -> complex | np.ndarray:
    """Exact steady-state impedance p_f/v of the closed loop at f_hz.

    Solves (zI - F) X = G(w) at z = e^{jwT} for the discrete model of
    `sampled_loop`, built once and solved one frequency at a time: a scalar
    f_hz gives a complex, an array an array of its shape.  The result is the
    loop's true sinusoidal steady state, with no transient and no time grid.
    Every f_hz must be positive and finite.  Raises a divergence error naming
    the spectral radius of F when the loop is unstable (no steady state).
    """
    f = check_frequencies(f_hz)
    dlti = sampled_loop(model, *cascades, loop)
    radius = float(np.max(np.abs(np.linalg.eigvals(dlti.f))))
    if radius >= 1.0:
        raise DivergenceError(
            f"closed loop is unstable (spectral radius {radius:.6g} >= 1): no steady state",
            time_s=None,
        )
    z, g = dlti.drive(2.0 * math.pi * (f.ravel() if f.ndim else f))
    eye = np.eye(len(dlti.f))
    if f.ndim == 0:
        return complex(1.0 / np.linalg.solve(z * eye - dlti.f, g[:, None])[0, 0])
    # one system per frequency: stacked, a band's would hold n_f * m^2 values
    v = [np.linalg.solve(zk * eye - dlti.f, gk[:, None])[0, 0] for zk, gk in zip(z, g)]
    return 1.0 / np.array(v, dtype=complex).reshape(f.shape)
