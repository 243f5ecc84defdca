import dataclasses
import math
import os
import subprocess
import sys
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


def reference_draw(seed, index, rel_std):
    """Draw `index` of the stream contract: one SeedSequence and Generator
    per draw, redrawn within its stream while any factor is <= 0."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    factors = rng.normal(1.0, rel_std, 5)
    while np.any(factors <= 0.0):
        factors = rng.normal(1.0, rel_std, 5)
    return factors


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
        assert not tri.singular.any()


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


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    lo=st.one_of(st.sampled_from([0, 1, 255, 256, 257, 511]), st.integers(0, 2**32 - 300)),
    n_draws=st.one_of(st.sampled_from([1, 2, 255, 256, 257]), st.integers(1, 300)),
)
def test_property_block_draws_match_reference(seed, lo, n_draws):
    # at rel_std 0.5, P(factor <= 0) = 2.3 % and ~11 % of draws are redrawn
    got = ea.analysis._draw_factors(seed, lo, lo + n_draws, 0.5)
    want = np.array([reference_draw(seed, i, 0.5) for i in range(lo, lo + n_draws)])
    assert got.tobytes() == want.tobytes()


def test_block_draws_cover_redraws():
    # the redraw path, including draws rejected more than once, is exercised
    first = np.array([
        np.random.default_rng(np.random.SeedSequence(3, spawn_key=(i,))).normal(1.0, 0.5, 5)
        for i in range(600)
    ])
    assert np.sum(np.any(first <= 0.0, axis=1)) > 30
    want = np.array([reference_draw(3, i, 0.5) for i in range(600)])
    assert ea.analysis._draw_factors(3, 0, 600, 0.5).tobytes() == want.tobytes()


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
        alpha[lo : lo + 256] = 1.0 - ((p @ gn.real) ** 2 + (p @ gn.imag) ** 2) / (
            (p @ gd.real) ** 2 + (p @ gd.imag) ** 2
        )
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


@pytest.mark.parametrize("target", ["1dof", "broadband", "2dof"])
def test_monte_carlo_alpha_matches_complex_reflection(monkeypatch, ref_model, targets, fb4, target):
    # the study's alpha, taken as it reaches the quartile step, against the
    # complex 1 - |Gamma|^2 of the same draws
    seen = []
    row_quartiles = ea.analysis._row_quartiles

    def record(alpha):
        seen.append(alpha.copy())
        return row_quartiles(alpha)

    monkeypatch.setattr(ea.analysis, "_row_quartiles", record)
    cfg = ea.MonteCarloConfig(n_draws=10_000, rel_std=0.05, seed=11)
    band = ea.monte_carlo_absorption(ref_model, targets[target], fb4, cfg)
    (alpha,) = seen
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


# a study's alpha = 1 - x is never -0.0, whose order against 0.0 is left to
# the sort and the partition; np.nan is the one NaN payload
ALPHA = st.one_of(
    st.floats(allow_nan=False).map(lambda x: x + 0.0),
    st.sampled_from([0.0, 0.5, 1.0, -np.inf, np.inf, np.nan]),
)


def assert_row_quartiles_match_quantile(alpha):
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.quantile(alpha, [0.25, 0.75], axis=1)
        got = np.array(ea.analysis._row_quartiles(alpha.copy()))
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[:, np.isnan(alpha).any(axis=1)]).all()


@settings(max_examples=200, deadline=None)
@given(alpha=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 5)), elements=ALPHA))
def test_property_row_quartiles_match_quantile(alpha):
    assert_row_quartiles_match_quantile(alpha)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_row_quartiles_match_quantile_at_study_size(seed):
    rng = np.random.default_rng(seed)
    alpha = 1.0 - rng.standard_normal((6, 10_000)) ** 2
    alpha[1] = np.round(alpha[1], 1)  # ties
    alpha[2, rng.integers(0, 10_000, 3000)] = np.inf
    alpha[3, rng.integers(0, 10_000, 3000)] = -np.inf
    alpha[4, rng.integers(0, 10_000, 3)] = np.nan
    alpha[5] = 0.5
    assert_row_quartiles_match_quantile(alpha)


def test_monte_carlo_zero_spread_equals_nominal(ref_model, targets, fb4):
    cfg = ea.MonteCarloConfig(n_draws=32, rel_std=0.0, seed=1, freqs_hz=np.arange(50.0, 500.0, 25.0))
    band = ea.monte_carlo_absorption(ref_model, targets["1dof"], fb4, cfg)
    np.testing.assert_allclose(band.q1, band.nominal, atol=1e-9)
    np.testing.assert_allclose(band.q3, band.nominal, atol=1e-9)


def test_monte_carlo_thread_determinism():
    # the same study in fresh processes at BLAS thread counts 1 and 2
    src = str(Path(ea.__file__).resolve().parent.parent)
    code = (
        "import hashlib, numpy as np, eabsorb as ea\n"
        "m = ea.table_reference_model()\n"
        "tg = ea.TargetSpec.single(m.air.characteristic_impedance, 400.0, 7.0)\n"
        "cfg = ea.MonteCarloConfig(n_draws=600, rel_std=0.05, seed=99)\n"
        "band = ea.monte_carlo_absorption(m, tg, ea.FeedbackSpec.from_hz(4.0, 500.0), cfg)\n"
        "print(hashlib.sha256(band.q1.tobytes() + band.q3.tobytes()).hexdigest())\n"
    )
    digests = []
    for n in ("1", "2"):
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
    assert digests[0] == digests[1]


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
