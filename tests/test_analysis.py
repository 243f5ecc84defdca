import ast
import dataclasses
import functools
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import eabsorb as ea


def grid_omega():
    return 2.0 * np.pi * ea.default_frequency_grid()


def test_exact_estimates_collapse_to_target(ref_model, targets, fb4):
    est = ref_model
    om = grid_omega()
    for tg in targets.values():
        zsa = ea.achieved_impedance(ref_model, est, tg, fb4, om)
        zst = ea.target_impedance(tg)(1j * om)
        assert np.max(np.abs(zsa / zst - 1.0)) < 1e-9


def test_achieved_impedance_mask(ref_model, targets, fb4):
    est = ref_model
    om = grid_omega()
    # a singular frequency would come back as inf
    zsa = ea.achieved_impedance(ref_model, est, targets["1dof"], fb4, om)
    assert zsa.shape == om.shape
    assert np.isfinite(zsa).all()


def test_scaled_estimates():
    m = ea.table_reference_model()
    est = m.scaled(pressure_factor=0.95)
    assert est.pressure_factor == pytest.approx(0.95 * m.pressure_factor)
    assert est.rss == m.rss
    assert est.air == m.air


def test_estimate_must_assume_the_same_air(ref_model, targets, fb4):
    # the kernel builds G from the true model's rho0*c0 only
    other = dataclasses.replace(ref_model, air=ea.AirProperties(rho0=1.21))
    om = grid_omega()
    with pytest.raises(ea.InvalidParameterError, match="air"):
        ea.achieved_impedance(ref_model, other, targets["1dof"], fb4, om)
    with pytest.raises(ea.InvalidParameterError, match="air"):
        ea.sensitivities(ref_model, other, targets["1dof"], fb4, om)


# -- oracle: the explicit mismatch formulas, written out term by term ---------


def oracle_hat_impedance(est, omega):
    s = 1j * omega
    w0, q = est.omega0, est.qms
    return est.rss * (s**2 + s * w0 / q + w0**2) / (s * w0 / q)


def oracle_mismatch(model, est, tg, fb, omega):
    """Z_sa and the (s_zss, s_f, s_csb) sensitivities from their explicit
    formulas."""
    s = 1j * omega
    zst = ea.target_impedance(tg)(s)
    g = ea.feedback_filter(model, fb)(s)
    zss = ea.passive_impedance(model)(s)
    zss_hat = oracle_hat_impedance(est, omega)
    f_true, f_hat = model.pressure_factor, est.pressure_factor
    f_ratio = f_hat / f_true
    c_ratio = est.csb / model.csb
    zsa = zst * (g * c_ratio + zss * f_ratio) / (g + zss_hat + zst * (f_ratio - 1.0))

    s_zss = -1.0 / (1.0 + (g + (f_ratio - 1.0) * zst) / zss_hat)
    term2 = 1.0 / (1.0 + f_true * (g + zss_hat - zst) / (f_hat * zst))
    if fb.kg == 0.0:
        # G = 0 removes the cavity-pressure path entirely
        s_csb = np.zeros_like(s_zss)
        s_f = 1.0 - term2
    else:
        ratio = c_ratio * f_true * g / (f_hat * zss)
        s_f = 1.0 / (1.0 + ratio) - term2
        s_csb = 1.0 / (1.0 + 1.0 / ratio)
    return zsa, (s_zss, s_f, s_csb)


def reference_normals(raw):
    """Box-Muller's rad*cos of the first three angles and rad*sin of the
    first two, from six raw outputs."""
    u = ((raw >> np.uint64(11)) + np.uint64(1)).astype(float) / 2.0**53
    rad = np.sqrt(-2.0 * np.log(u[:3]))
    theta = 2.0 * np.pi * u[3:]
    return np.concatenate([rad * np.cos(theta), rad * np.sin(theta)])[:5]


def reference_attempts(seed, index, rel_std):
    """The factors of each attempt j of draw `index` of the stream
    contract: numpy's own PCG64 on the seed's SeedSequence, advanced to the
    attempt's six raw outputs at 6*(j*2**32 + index)."""
    seed_seq = np.random.SeedSequence(seed)
    for j in itertools.count():
        bitgen = np.random.PCG64(seed_seq)
        bitgen.advance(6 * (j * 2**32 + index))
        yield 1.0 + rel_std * reference_normals(bitgen.random_raw(6))


def reference_draw(seed, index, rel_std):
    """Draw `index` of the stream contract: its first all-positive attempt."""
    return next(f for f in reference_attempts(seed, index, rel_std) if np.all(f > 0.0))


def rejections(seed, index, rel_std):
    """How many attempts of draw `index` are rejected."""
    attempts = enumerate(reference_attempts(seed, index, rel_std))
    return next(n for n, f in attempts if np.all(f > 0.0))


def oracle_quartiles(model, tg, fb, cfg):
    """Type-7 quartiles of the oracle absorption over the study's draws."""
    omega = 2.0 * np.pi * np.asarray(cfg.freqs_hz)
    alpha = np.array([
        ea.absorption_coefficient(
            oracle_mismatch(
                model,
                model.scaled(*reference_draw(cfg.seed, i, cfg.rel_std)),
                tg, fb, omega,
            )[0],
            model.air,
        )
        for i in range(cfg.n_draws)
    ])
    xs = np.sort(alpha, axis=0)

    def type7(p):
        h = (cfg.n_draws - 1) * p
        lo = math.floor(h)
        hi = min(lo + 1, cfg.n_draws - 1)
        return xs[lo] + (h - lo) * (xs[hi] - xs[lo])

    return type7(0.25), type7(0.75)


def test_hat_impedance_matches_model(ref_model, targets, fb4):
    # exact estimates: the kernel's Zss_hat = R_hat + M_hat*s + K_hat/s and
    # the oracle's are both the passive impedance
    est = ref_model
    om = grid_omega()
    zss = ea.passive_impedance(ref_model)(1j * om)
    _, den = ea.analysis._mismatch_kernel(ref_model, targets["1dof"], fb4, 1j * om)
    p = ea.analysis._assumed_vector(ref_model, est)
    np.testing.assert_allclose(p[3:] @ den[3:], zss, rtol=1e-12)
    np.testing.assert_allclose(oracle_hat_impedance(est, om), zss, rtol=1e-12)


FACTOR = st.floats(min_value=0.7, max_value=1.3)


@settings(max_examples=60, deadline=None)
@given(
    target=st.sampled_from(["1dof", "broadband", "2dof"]),
    feedback=st.sampled_from(["fb0", "fb4"]),
    factors=st.tuples(FACTOR, FACTOR, FACTOR, FACTOR, FACTOR),
)
def test_property_kernel_matches_oracle(ref_model, targets, fb0, fb4, target, feedback, factors):
    fb = {"fb0": fb0, "fb4": fb4}[feedback]
    tg = targets[target]
    est = ref_model.scaled(*factors)
    om = grid_omega()
    zsa, sens = oracle_mismatch(ref_model, est, tg, fb, om)
    np.testing.assert_allclose(ea.achieved_impedance(ref_model, est, tg, fb, om), zsa, rtol=1e-12)
    tri = ea.sensitivities(ref_model, est, tg, fb, om)
    # sensitivities are O(1) log-derivatives and s_f, a difference of two
    # terms, may cancel to 0, so their error is relative to 1 + |s|
    for got, want in zip((tri.s_zss, tri.s_f, tri.s_csb), sens):
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(
    target=st.sampled_from(["1dof", "broadband", "2dof"]),
    feedback=st.sampled_from(["fb0", "fb4"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_draws=st.integers(min_value=1, max_value=300),
)
def test_property_monte_carlo_matches_oracle(
    ref_model, targets, fb0, fb4, target, feedback, seed, n_draws
):
    fb = {"fb0": fb0, "fb4": fb4}[feedback]
    cfg = ea.MonteCarloConfig(
        n_draws=n_draws, rel_std=0.05, seed=seed, freqs_hz=np.arange(20.0, 1000.0, 20.0)
    )
    band = ea.monte_carlo_absorption(ref_model, targets[target], fb, cfg)
    q1, q3 = oracle_quartiles(ref_model, targets[target], fb, cfg)
    np.testing.assert_allclose(band.q1, q1, rtol=0, atol=1e-12)
    np.testing.assert_allclose(band.q3, q3, rtol=0, atol=1e-12)


# -- sensitivities ------------------------------------------------------------


def _fd_sensitivity(model, est, tg, fb, om, field):
    h = 1e-6

    def z(e):
        return ea.achieved_impedance(model, e, tg, fb, om)

    up = dataclasses.replace(est, **{field: getattr(est, field) * (1.0 + h)})
    dn = dataclasses.replace(est, **{field: getattr(est, field) * (1.0 - h)})
    return (z(up) - z(dn)) / (2.0 * h) / z(est)


def test_sensitivities_match_finite_differences(ref_model, targets, fb4):
    om = 2.0 * np.pi * np.array([50.0, 120.0, 205.5, 400.0, 800.0])
    est = ref_model.scaled(rss=1.03, omega0=0.99, qms=1.05, pressure_factor=0.95, csb=1.02)
    for tg in targets.values():
        tri = ea.sensitivities(ref_model, est, tg, fb4, om)
        # a uniform scaling of rss scales the whole estimated impedance
        np.testing.assert_allclose(
            tri.s_zss, _fd_sensitivity(ref_model, est, tg, fb4, om, "rss"), rtol=1e-5
        )
        np.testing.assert_allclose(
            tri.s_f,
            _fd_sensitivity(ref_model, est, tg, fb4, om, "pressure_factor"),
            rtol=1e-5,
        )
        np.testing.assert_allclose(
            tri.s_csb, _fd_sensitivity(ref_model, est, tg, fb4, om, "csb"), rtol=1e-5
        )
        assert np.isfinite([tri.s_zss, tri.s_f, tri.s_csb]).all()


def test_sensitivities_zero_feedback(ref_model, targets, fb0):
    om = 2.0 * np.pi * np.array([100.0, 205.5, 400.0])
    est = ref_model.scaled(pressure_factor=0.95)
    tri = ea.sensitivities(ref_model, est, targets["1dof"], fb0, om)
    np.testing.assert_array_equal(tri.s_csb, 0.0)
    np.testing.assert_allclose(
        tri.s_f, _fd_sensitivity(ref_model, est, targets["1dof"], fb0, om, "pressure_factor"),
        rtol=1e-5,
    )


def test_sensitivity_limits_at_large_gain(ref_model, targets):
    # infinite-feedback asymptotics: errors in the passive impedance and
    # force factor vanish, compliance errors pass straight through
    big = ea.FeedbackSpec(1e6, 2.0 * np.pi * 500.0)
    est = ref_model
    om = 2.0 * np.pi * np.array([50.0, 205.5, 400.0, 800.0])
    tri = ea.sensitivities(ref_model, est, targets["1dof"], big, om)
    assert np.max(np.abs(tri.s_zss)) < 1e-3
    assert np.max(np.abs(tri.s_f)) < 1e-3
    assert np.max(np.abs(tri.s_csb - 1.0)) < 1e-3


# -- reflection / absorption --------------------------------------------------


def test_matched_impedance_fully_absorbs(rc):
    air = ea.DEFAULT_AIR
    assert ea.absorption_coefficient(rc + 0j, air) == pytest.approx(1.0)
    assert ea.reflection_coefficient(rc + 0j, air) == 0.0


def test_rigid_and_pressure_release(rc):
    air = ea.DEFAULT_AIR
    assert ea.absorption_coefficient(1e30 + 0j, air) == pytest.approx(0.0, abs=1e-12)
    assert ea.absorption_coefficient(1e-30 + 0j, air) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    re=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    im=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_property_passive_impedance_absorbs_at_most_one(re, im):
    # any impedance with nonnegative real part has alpha in [0, 1]
    air = ea.DEFAULT_AIR
    alpha = float(ea.absorption_coefficient(complex(re, im), air))
    assert alpha <= 1.0 + 1e-12
    assert alpha >= -1e-12 or re == 0.0


def test_active_surface_negative_alpha():
    air = ea.DEFAULT_AIR
    assert float(ea.absorption_coefficient(-200.0 + 0j, air)) < 0.0


# -- Monte Carlo --------------------------------------------------------------


def test_draw_factors_deterministic_per_index():
    a = ea.analysis.draw_parameter_factors(123, 7, 0.05)
    b = ea.analysis.draw_parameter_factors(123, 7, 0.05)
    c = ea.analysis.draw_parameter_factors(123, 8, 0.05)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(a > 0.0)


# one seed word, or two to five of them
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**128))


BLOCK = ea.analysis._DRAW_BLOCK


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    lo=st.one_of(
        st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1]),
        st.integers(0, 2**32 - BLOCK - 1),
    ),
    n_draws=st.one_of(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1]), st.integers(1, 300)),
)
def test_property_block_draws_match_reference(seed, lo, n_draws):
    # at rel_std 0.5, P(factor <= 0) = 2.3 % and ~11 % of draws are redrawn
    got = ea.analysis._draw_factors(seed, lo, lo + n_draws, 0.5)
    want = np.array([reference_draw(seed, i, 0.5) for i in range(lo, lo + n_draws)])
    assert got.tobytes() == want.tobytes()


def test_block_draws_cover_redraws():
    # the redraw path, including draws rejected more than once, is exercised
    counts = np.array([rejections(3, i, 0.5) for i in range(600)])
    assert np.sum(counts > 0) > 30 and np.any(counts > 1)
    want = np.array([reference_draw(3, i, 0.5) for i in range(600)])
    assert ea.analysis._draw_factors(3, 0, 600, 0.5).tobytes() == want.tobytes()


def test_a_factor_of_exactly_zero_is_redrawn():
    # at rel_std = -1/z the fifth factor of draw 0 of seed 0, 1 + rel_std*z,
    # is exactly 0.0: not positive, so the draw is made again
    z = reference_normals(np.random.PCG64(np.random.SeedSequence(0)).random_raw(6))[4]
    rel_std = -1.0 / z
    assert 1.0 + rel_std * z == 0.0
    factors = ea.analysis.draw_parameter_factors(0, 0, rel_std)
    assert np.all(factors > 0.0)
    assert factors.tobytes() == reference_draw(0, 0, rel_std).tobytes()


def test_block_draws_read_the_stream_at_six_i():
    # attempt 0 of draw i of a block past the stream's start is the six
    # outputs at 6*i, read here from the start of the stream, not advanced to
    seed, lo, hi = 20260823, 5000, 5300
    raw = np.random.PCG64(np.random.SeedSequence(seed)).random_raw(6 * hi)
    want = np.array([1.0 + 0.05 * reference_normals(raw[6 * i : 6 * i + 6]) for i in range(lo, hi)])
    assert np.all(want > 0.0)
    assert ea.analysis._draw_factors(seed, lo, hi, 0.05).tobytes() == want.tobytes()


def test_box_muller_gets_contiguous_rows(monkeypatch):
    # _box_muller's docstring asks for contiguous rows, on which the block
    # and the one-draw paths take the same ufunc loops; the strided
    # transpose of the raw block could round otherwise on some platform
    box_muller, columns = ea.analysis._box_muller, []

    def checked(raw):
        assert raw.flags.c_contiguous
        columns.append(raw.shape[1])
        return box_muller(raw)

    monkeypatch.setattr(ea.analysis, "_box_muller", checked)
    assert any(rejections(3, i, 0.5) for i in range(40))  # a redraw runs too
    ea.analysis._draw_factors(3, 0, 40, 0.5)
    ea.analysis.draw_parameter_factors(3, 7, 0.5)
    assert columns[0] == 40 and columns.count(1) >= 2


def calls_in_src(callee):
    """(module, innermost enclosing function) of every call in the package
    whose callee reads `callee`."""
    found = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) == callee:
                found.append((module, owner))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if inner else owner)

    for path in sorted(Path(ea.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def test_one_function_makes_every_draw():
    # the stream is placed, and its normals made, in one place: a study's
    # blocks, their redraws and the public draw all go through it
    assert calls_in_src("np.random.PCG64") == [("analysis.py", "_draw_factors")]
    assert calls_in_src("_box_muller") == [("analysis.py", "_draw_factors")]


@functools.lru_cache(maxsize=None)
def reference_block(lo, hi):
    """Reference draws lo, ..., hi - 1 at rel_std 0.5, with how many times
    each is rejected."""
    draws = np.array([reference_draw(20260823, i, 0.5) for i in range(lo, hi)])
    return draws, np.array([rejections(20260823, i, 0.5) for i in range(lo, hi)])


@pytest.mark.parametrize("n_draws", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("at_end", [False, True], ids=["start", "end"])
def test_block_draws_match_reference_at_block_sizes(n_draws, at_end):
    # the blocks at each end of the index range are prefixes and suffixes
    # of one reference run each
    n_max = BLOCK + 1
    if at_end:
        lo = 2**32 - n_draws
        draws, counts = (x[n_max - n_draws :] for x in reference_block(2**32 - n_max, 2**32))
    else:
        lo = 0
        draws, counts = (x[:n_draws] for x in reference_block(0, n_max))
    got = ea.analysis._draw_factors(20260823, lo, lo + n_draws, 0.5)
    assert got.tobytes() == draws.tobytes()
    if n_draws >= BLOCK - 1:
        assert np.any(counts == 1) and np.any(counts == 2)


def test_box_muller_normals_are_standard_normal():
    from scipy import stats

    raw = np.random.PCG64(20260823).random_raw((6, 20_000))
    z = ea.analysis._box_muller(raw)
    assert z.shape == (5, 20_000)
    assert stats.kstest(z.ravel(), stats.norm.cdf).pvalue > 0.01
    # the five rows are uncorrelated: no row repeats another radius-angle pair
    corr = np.corrcoef(z)
    assert np.max(np.abs(corr - np.eye(5))) < 0.03


def test_public_draw_redraws_within_its_stream():
    # at rel_std 0.5 some 11 % of draws are rejected at least once; the
    # public draw redraws them as the block draws of a study do
    got = np.array([ea.analysis.draw_parameter_factors(3, i, 0.5) for i in range(600)])
    assert got.tobytes() == ea.analysis._draw_factors(3, 0, 600, 0.5).tobytes()


@pytest.mark.parametrize(
    "seed",
    [0, 1, 20260823, 2**32 + 5, 2**100 + 3, int(1.2e22), 2**128 - 1, 2**128, 2**200 + 9],
)
def test_public_draw_matches_reference(seed):
    for index in (0, 1, 255, 256, 257, 99_999, 2**32 - 1):
        for rel_std in (0.0, 0.05, 0.19):
            got = ea.analysis._draw_factors(seed, index, index + 1, rel_std)[0]
            assert got.tobytes() == reference_draw(seed, index, rel_std).tobytes()
    # numpy integer seeds and indices give the same draws as Python ints
    got = ea.analysis.draw_parameter_factors(np.uint64(seed % 2**64), np.int64(7), 0.05)
    assert got.tobytes() == reference_draw(seed % 2**64, 7, 0.05).tobytes()


def find_draw(seed, predicate):
    return next(i for i in range(100_000) if predicate(i))


@pytest.mark.parametrize("case, rel_std", [("rejected", 0.5), ("rejected twice", 0.5)])
def test_block_draws_cover_every_slow_path(case, rel_std):
    # a draw rejected once or twice, found by scanning the reference
    # streams, comes out bit for bit inside a block of draws accepted at once
    seed = 20260823
    times = 2 if case.endswith("twice") else 1
    i = find_draw(seed, lambda i: rejections(seed, i, rel_std) == times)
    lo = max(i - 10, 0)
    neighbours = [j for j in range(lo, i + 11) if j != i]
    accepted = [j for j in neighbours if rejections(seed, j, rel_std) == 0]
    assert len(accepted) >= 8
    want = np.array([reference_draw(seed, j, rel_std) for j in range(lo, i + 11)])
    assert ea.analysis._draw_factors(seed, lo, i + 11, rel_std).tobytes() == want.tobytes()


def matrix_product(a, b):
    """a @ b on BLAS's matrix-product path, which the study takes for every
    product: a product with one row or one column would take the
    matrix-vector path, which rounds by another rule."""
    return (np.vstack([a, a]) @ np.hstack([b, b]))[: a.shape[0], : b.shape[1]]


def reference_study(model, tg, fb, cfg):
    """The study with reference draws, one row per draw and quantiles along
    the draw axis."""
    s = 2j * np.pi * np.asarray(cfg.freqs_hz, dtype=float)
    num, den = ea.analysis._mismatch_kernel(model, tg, fb, s)
    rc = model.air.characteristic_impedance
    gn, gd = num - rc * den, num + rc * den
    true = np.array([model.rss, model.omega0, model.qms, model.pressure_factor, model.csb])
    factors = np.array([reference_draw(cfg.seed, i, cfg.rel_std) for i in range(cfg.n_draws)])
    alpha = np.empty((cfg.n_draws, s.size))
    for lo in range(0, cfg.n_draws, 256):
        p = ea.analysis._estimate_vector(model, *(true * factors[lo : lo + 256]).T)
        # 1 - |p @ gn|^2 / |p @ gd|^2 from real products, as p is real
        a_re, a_im, b_re, b_im = (matrix_product(p, g) for g in (gn.real, gn.imag, gd.real, gd.imag))
        alpha[lo : lo + 256] = 1.0 - (a_re**2 + a_im**2) / (b_re**2 + b_im**2)
    q1, q3 = np.quantile(alpha, [0.25, 0.75], axis=0)
    nominal = ea.absorption_coefficient(ea.target_impedance(tg)(s), model.air)
    return q1, q3, nominal


@pytest.mark.parametrize("target", ["1dof", "broadband", "2dof"])
def test_monte_carlo_bytes_match_reference_study(ref_model, targets, fb4, target):
    cfg = ea.MonteCarloConfig(n_draws=601, rel_std=0.05, seed=20260823)
    band = ea.monte_carlo_absorption(ref_model, targets[target], fb4, cfg)
    q1, q3, nominal = reference_study(ref_model, targets[target], fb4, cfg)
    assert band.q1.tobytes() == q1.tobytes()
    assert band.q3.tobytes() == q3.tobytes()
    assert band.nominal.tobytes() == nominal.tobytes()


@pytest.mark.parametrize("n_freq", [1, 7, 8, 9, 13])
@pytest.mark.parametrize("n_draws", [1, 255, 257, 601, BLOCK - 1, BLOCK + 1])
def test_monte_carlo_bytes_at_tile_and_block_edges(ref_model, targets, fb4, n_freq, n_draws):
    # a one-point grid (the helper thread's half is empty), grids that split
    # into halves of equal and of unequal length, and draw counts inside one
    # draw block and on either side of a block edge
    freqs = np.linspace(40.0, 900.0, n_freq)
    cfg = ea.MonteCarloConfig(n_draws=n_draws, rel_std=0.05, seed=20260823, freqs_hz=freqs)
    band = ea.monte_carlo_absorption(ref_model, targets["2dof"], fb4, cfg)
    q1, q3, nominal = reference_study(ref_model, targets["2dof"], fb4, cfg)
    assert band.q1.tobytes() == q1.tobytes()
    assert band.q3.tobytes() == q3.tobytes()
    assert band.nominal.tobytes() == nominal.tobytes()


def study_alpha(monkeypatch, model, tg, fb, cfg):
    """The study's alpha = 1 - |Gamma|^2, from the |Gamma|^2 recorded at
    each frequency's index as it is made (by either thread), one row per
    frequency."""
    n = cfg.freqs_hz.size
    seen = [None] * n
    reflectance_row = ea.analysis._reflectance_row

    def record(parts, i, *args):
        r = reflectance_row(parts, i, *args)
        assert seen[i] is None
        seen[i] = 1.0 - r[: cfg.n_draws]
        return r

    monkeypatch.setattr(ea.analysis, "_reflectance_row", record)
    band = ea.monte_carlo_absorption(model, tg, fb, cfg)
    monkeypatch.undo()
    # every frequency was taken once, against every draw
    assert [None if a is None else a.shape for a in seen] == [(cfg.n_draws,)] * n
    return band, np.stack(seen)


@pytest.mark.parametrize("n_draws", [1, 2, 256, 257, 513, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_monte_carlo_draw_alpha_does_not_depend_on_draw_count(
    monkeypatch, ref_model, targets, fb4, n_draws
):
    # a draw's alpha is the same bytes however many draws follow it, also
    # where it is alone in the study or in its block of draws
    def alpha(n):
        cfg = ea.MonteCarloConfig(n_draws=n, rel_std=0.05, seed=20260823)
        return study_alpha(monkeypatch, ref_model, targets["1dof"], fb4, cfg)[1]

    assert alpha(n_draws).tobytes() == alpha(2 * BLOCK + 600)[:, :n_draws].tobytes()


def test_monte_carlo_memory_is_not_study_sized(ref_model, targets, fb4):
    # a warm 10 000-draw study on the 496-point default grid holds 6 + 2*4
    # doubles per draw (the estimate vectors and one (4, n_draws) buffer per
    # thread) and 0.48 MB of per-frequency arrays and the rest: 1.60 MB in
    # all.  A buffer of two frequencies' rows per thread reads 2.22 MB.  The
    # first study also imports numpy.random, which adds 0.72 MB, so one runs
    # before tracing
    cfg = ea.MonteCarloConfig(n_draws=10_000, rel_std=0.05, seed=3)
    ea.monte_carlo_absorption(ref_model, targets["2dof"], fb4, cfg)
    tracemalloc.start()
    try:
        ea.monte_carlo_absorption(ref_model, targets["2dof"], fb4, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (6 + 2 * 4) * 8 * cfg.n_draws + 2**19


@pytest.mark.parametrize("target", ["1dof", "broadband", "2dof"])
def test_monte_carlo_alpha_matches_complex_reflection(monkeypatch, ref_model, targets, fb4, target):
    # the study's alpha against the complex 1 - |Gamma|^2 of the same draws
    cfg = ea.MonteCarloConfig(n_draws=10_000, rel_std=0.05, seed=11)
    band, alpha = study_alpha(monkeypatch, ref_model, targets[target], fb4, cfg)
    # the quartiles read off the sorted draws are np.quantile's bytes
    q1, q3 = np.quantile(alpha, [0.25, 0.75], axis=1)
    assert band.q1.tobytes() == q1.tobytes()
    assert band.q3.tobytes() == q3.tobytes()
    s = 2j * np.pi * cfg.freqs_hz
    num, den = ea.analysis._mismatch_kernel(ref_model, targets[target], fb4, s)
    rc = ref_model.air.characteristic_impedance
    m = ref_model
    true = np.array([m.rss, m.omega0, m.qms, m.pressure_factor, m.csb])
    factors = ea.analysis._draw_factors(cfg.seed, 0, cfg.n_draws, cfg.rel_std)
    p = ea.analysis._estimate_vector(m, *(true * factors).T)
    for lo in range(0, cfg.n_draws, 1000):
        gamma = (p[lo : lo + 1000] @ (num - rc * den)) / (p[lo : lo + 1000] @ (num + rc * den))
        want = (1.0 - np.abs(gamma) ** 2).T
        np.testing.assert_allclose(alpha[:, lo : lo + 1000], want, rtol=0, atol=1e-14)


# a study's ratio r = |Gamma|^2 lies in [0, inf] or is NaN; -0.0 and 0.0
# give the same alpha = 1 - r, and np.nan is the one NaN payload
RATIO = st.one_of(
    st.floats(min_value=0.0, allow_nan=False),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf, np.nan]),
)


def row_quartiles(r):
    """The study's quartile rule on each row of ratios r: sort the row, read
    the order statistics of `_quartile_rule` and lerp the alpha = 1 - r of
    the mirrored ones."""
    index, gamma = ea.analysis._quartile_rule(r.shape[1])
    return ea.analysis._lerp_quartiles(np.sort(r, axis=1)[:, index], gamma)


def assert_row_quartiles_match_quantile(r):
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.quantile(1.0 - r, [0.25, 0.75], axis=1)
        got = row_quartiles(r)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[:, np.isnan(r).any(axis=1)]).all()


@settings(max_examples=300, deadline=None)
@given(r=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=RATIO))
def test_property_row_quartiles_match_quantile(r):
    assert_row_quartiles_match_quantile(r)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_row_quartiles_match_quantile_at_study_size(seed):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((7, 10_000)) ** 2
    r[1] = np.round(r[1], 1)  # ties
    r[2, rng.integers(0, 10_000, 3000)] = np.inf
    r[3, rng.integers(0, 10_000, 3000)] = 0.0
    r[4, rng.integers(0, 10_000, 3)] = np.nan
    r[5] = 0.5
    r[6, rng.integers(0, 10_000, 3000)] = np.inf
    r[6, rng.integers(0, 10_000, 1)] = np.nan
    assert_row_quartiles_match_quantile(r)


def test_monte_carlo_zero_spread_equals_nominal(ref_model, targets, fb4):
    cfg = ea.MonteCarloConfig(n_draws=32, rel_std=0.0, seed=1, freqs_hz=np.arange(50.0, 500.0, 25.0))
    band = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)
    np.testing.assert_allclose(band.q1, band.nominal, atol=1e-9)
    np.testing.assert_allclose(band.q3, band.nominal, atol=1e-9)


def test_monte_carlo_thread_determinism():
    # the same study in fresh processes at BLAS thread counts 1 and 2, and in
    # one pinned to a single CPU, where the study's two threads and BLAS's
    # share it.  50 000 draws is more than one column block of a product
    # (`_PRODUCT_COLUMNS`), and more than OpenBLAS needs to split an
    # unblocked (4, 6) @ (6, n) product across its threads
    src = str(Path(ea.__file__).resolve().parent.parent)
    study = (
        "import hashlib, numpy as np, eabsorb as ea\n"
        "m = ea.table_reference_model()\n"
        "tg = ea.TargetSpec.multi([(m.air.characteristic_impedance, 400.0, 7.0)])\n"
        "cfg = ea.MonteCarloConfig(n_draws=50_000, rel_std=0.05, seed=99)\n"
        "band = ea.monte_carlo_absorption(m, tg, ea.FeedbackSpec.from_hz(4.0, 500.0), cfg)\n"
        "print(hashlib.sha256(band.q1.tobytes() + band.q3.tobytes()).hexdigest())\n"
    )
    children = [("1", study), ("2", study)]
    if hasattr(os, "sched_setaffinity"):
        pin = f"import os\nos.sched_setaffinity(0, {{{min(os.sched_getaffinity(0))}}})\n"
        children.append(("2", pin + study))
    digests = []
    for n, code in children:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            OPENBLAS_NUM_THREADS=n,
            OMP_NUM_THREADS=n,
            MKL_NUM_THREADS=n,
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        digests.append(out.stdout.strip())
    assert len(set(digests)) == 1


def test_monte_carlo_concurrent_studies_keep_their_bytes(ref_model, targets, fb4):
    # more studies at once than cores, each with its own helper thread, under
    # a short switch interval: every band has the bytes of a study run alone
    cfgs = [
        ea.MonteCarloConfig(n_draws=300 + 7 * k, rel_std=0.05, seed=k, freqs_hz=np.linspace(40.0, 900.0, 9 + k))
        for k in range(4)
    ]
    want = [ea.monte_carlo_absorption(ref_model, targets["2dof"], fb4, cfg) for cfg in cfgs]
    got = [[] for _ in cfgs]

    def study(k):
        for _ in range(5):
            got[k].append(ea.monte_carlo_absorption(ref_model, targets["2dof"], fb4, cfgs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=study, args=(k,)) for k in range(len(cfgs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for bands, ref in zip(got, want):
        assert len(bands) == 5
        assert all(band.q1.tobytes() == ref.q1.tobytes() for band in bands)
        assert all(band.q3.tobytes() == ref.q3.tobytes() for band in bands)


@pytest.mark.parametrize("upper", [False, True], ids=["caller_half", "helper_half"])
@pytest.mark.parametrize("mode", ["warning", "raise"])
def test_monte_carlo_error_in_either_half_is_raised(monkeypatch, ref_model, targets, fb4, upper, mode):
    # finite 1e200 coefficients at the frequencies of one half only overflow
    # when the study squares their products: the suite's error::RuntimeWarning
    # filter, or the caller's errstate(over="raise"), holds in both threads
    cfg = ea.MonteCarloConfig(n_draws=64, rel_std=0.05, seed=1, freqs_hz=np.linspace(50.0, 900.0, 9))
    half = slice(5, None) if upper else slice(None, 5)
    kernel = ea.analysis._mismatch_kernel

    def overflowing(*args):
        num, den = kernel(*args)
        num[1, half] = 1e200
        return num, den

    monkeypatch.setattr(ea.analysis, "_mismatch_kernel", overflowing)
    if mode == "warning":
        with pytest.raises(RuntimeWarning, match="overflow"):
            ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)
    else:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)


def test_monte_carlo_feedback_narrows_band(ref_model, targets, fb0, fb4):
    freqs = np.arange(180.0, 240.0, 2.0)
    cfg = ea.MonteCarloConfig(n_draws=2000, rel_std=0.05, seed=5, freqs_hz=freqs)
    wide = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb0, cfg)
    narrow = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)
    i = np.argmin(np.abs(freqs - 206.0))
    assert narrow.width[i] < 0.5 * wide.width[i]


def test_quartile_band_csv_round_trip(tmp_path, ref_model, targets, fb4):
    cfg = ea.MonteCarloConfig(n_draws=64, rel_std=0.05, seed=3, freqs_hz=np.arange(50.0, 500.0, 50.0))
    band = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)
    path = tmp_path / "band.csv"
    band.to_csv(path)
    clone = ea.QuartileBand.from_csv(path)
    np.testing.assert_array_equal(band.q1, clone.q1)
    np.testing.assert_array_equal(band.q3, clone.q3)
    np.testing.assert_array_equal(band.freqs_hz, clone.freqs_hz)
    # byte-identical rewrite
    clone.to_csv(tmp_path / "band2.csv")
    assert (tmp_path / "band.csv").read_bytes() == (tmp_path / "band2.csv").read_bytes()


def test_monte_carlo_config_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.MonteCarloConfig(n_draws=0, rel_std=0.05, seed=1)
    with pytest.raises(ea.InvalidParameterError):
        ea.MonteCarloConfig(n_draws=2**32 + 1, rel_std=0.05, seed=1)
    with pytest.raises(ea.InvalidParameterError):
        ea.MonteCarloConfig(n_draws=10, rel_std=0.5, seed=1)
    ea.MonteCarloConfig(n_draws=10, rel_std=0.05, seed=np.uint32(7))
    ea.MonteCarloConfig(n_draws=np.int64(10), rel_std=0.05, seed=1)
    # a float count would fail later inside the study with a bare TypeError
    for n_draws in (2.5, 10.0, True, "10", None):
        with pytest.raises(ea.InvalidParameterError, match="n_draws"):
            ea.MonteCarloConfig(n_draws=n_draws, rel_std=0.05, seed=1)


@pytest.mark.parametrize(
    "freqs",
    [[0.0, 100.0], [np.nan], [-100.0], [100.0, np.inf], [[100.0, 200.0]], 100.0],
    ids=["zero", "nan", "negative", "inf", "2-d", "scalar"],
)
def test_bad_frequencies_rejected(freqs):
    # a bad frequency would give inf/NaN quartiles or a band at -100 Hz, and
    # a grid that is not 1-D would fail inside the study
    with pytest.raises(ea.InvalidParameterError, match="freqs_hz"):
        ea.MonteCarloConfig(n_draws=10, rel_std=0.05, seed=1, freqs_hz=np.array(freqs))


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "7", True, None])
def test_bad_seed_rejected(seed):
    with pytest.raises(ea.InvalidParameterError, match="seed"):
        ea.MonteCarloConfig(n_draws=10, rel_std=0.05, seed=seed)
    with pytest.raises(ea.InvalidParameterError, match="seed"):
        ea.analysis.draw_parameter_factors(seed, 0, 0.05)


@pytest.mark.parametrize("index", [-1, 2**32, 2**40, 3.0, "1"])
def test_bad_draw_index_rejected(index):
    with pytest.raises(ea.InvalidParameterError, match="index"):
        ea.analysis.draw_parameter_factors(1, index, 0.05)
