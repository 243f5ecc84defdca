import csv
import dataclasses
import io
import json
import math
import re
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import eabsorb as ea
from eabsorb import _csvio, dsp
from eabsorb.rational import RationalTransfer

FS = 50_000.0

#: the all-zero filter: one passthrough section behind a zero gain
ZERO = ea.SosCascade([(1.0, 0.0, 0.0, 0.0, 0.0)], 0.0, FS)


def unrefined(ct):
    """The bilinear seed that `bilinear_discretize` polishes, as a cascade."""
    bz, az = dsp.bilinear_transform(ct.num, ct.den, FS)
    return ea.sos_partition(np.roots(bz), np.roots(az), float(bz[0]), FS)


@pytest.fixture(scope="module")
def pair_1dof(ref_model, targets, fb4):
    return ea.synthesize_controller(ref_model, targets["1dof"], fb4)


@pytest.fixture(scope="module")
def cascades_1dof(pair_1dof):
    return (
        ea.bilinear_discretize(pair_1dof.h1, FS),
        ea.bilinear_discretize(pair_1dof.h2, FS),
    )


# -- discretization -----------------------------------------------------------


def test_constant_gain_passthrough():
    cas = ea.bilinear_discretize(RationalTransfer.constant(3.5), FS)
    assert cas.sos.tolist() == [[1.0, 0.0, 0.0, 0.0, 0.0]]
    np.testing.assert_allclose(cas.response([0.0, 100.0, 5000.0]), 3.5)
    step = df2t_stepper(cas)
    assert [step(x) for x in (1.0, -2.0, 0.5)] == [3.5, -7.0, 1.75]


def test_dc_gain_preserved_exactly(ref_model, fb4):
    # the transform maps s=0 to z=1, and refinement pins DC, so the DC gain
    # of the feedback low-pass survives exactly
    g = ea.feedback_filter(ref_model, fb4)
    for cas in (unrefined(g), ea.bilinear_discretize(g, FS)):
        dc_disc = complex(cas.response(np.array([0.0]))[0])
        dc_cont = complex(g(0.0))
        assert dc_disc == pytest.approx(dc_cont, rel=1e-12)


def test_dc_fixed_point_random_transfers():
    rng = np.random.default_rng(11)
    for _ in range(20):
        den = np.concatenate([[1.0], rng.uniform(0.5, 5.0, 2) * [1e3, 1e5]])
        num = rng.uniform(-2.0, 2.0, 3) * [1.0, 1e3, 1e5]
        ct = RationalTransfer.from_coeffs(num, den)
        cas = unrefined(ct)
        assert complex(cas.response(np.array([0.0]))[0]) == pytest.approx(
            complex(ct(0.0)), rel=1e-9
        )


def test_improper_rejected():
    improper = RationalTransfer.from_coeffs([1.0, 0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ea.DiscretizationError):
        ea.bilinear_discretize(improper, FS)


@pytest.mark.parametrize("via_discretize", [False, True])
def test_zero_at_twice_fs_rejected(via_discretize):
    # a continuous zero at s = 2*fs maps to z = infinity: the leading z
    # coefficient vanishes, and dropping it would advance the filter a
    # sample; the guard holds on the raw transform and through the cascade
    ct = RationalTransfer.from_coeffs([1.0, -2.0 * FS], [1.0, 1e3])
    with pytest.raises(ea.DiscretizationError, match="leading z coefficient"):
        if via_discretize:
            ea.bilinear_discretize(ct, FS)
        else:
            dsp.bilinear_transform(ct.num, ct.den, FS)


def test_leading_coefficient_bound_is_inclusive():
    # at fs = 2048 the factor sqrt(2*fs) = 64 is exact, so (a*s + b)/(s/64)
    # maps to exactly [b/64 + 64*a, b/64 - 64*a] over [1, -1]
    def transform(lead, rest):
        b, a = 64 * ((lead + rest) / 2), ((lead - rest) / 2) / 64
        return dsp.bilinear_transform([a, b], [1 / 64, 0.0], 2048.0)

    # 1e-14 * 4.6e15 rounds to 46.0: a leading coefficient at the bound,
    # exactly 1e-14 of the largest, is refused, and the next integer kept
    with pytest.raises(ea.DiscretizationError, match="leading z coefficient 46.0 at or below"):
        transform(46.0, 4.6e15)
    assert transform(47.0, 4.6e15)[0].tolist() == [47.0, 4.6e15]
    # the bound is relative: 64e-14/(s/64), whose leading coefficient is
    # 1e-14, is a small gain with no finite zero and maps like any other
    assert transform(1e-14, 1e-14)[0].tolist() == [1e-14, 1e-14]


@pytest.mark.parametrize(("num", "fs"), [([1.0, -4096.0], 2048.0), ([5e-324], FS)])
def test_vanished_leading_coefficient_rejected(num, fs):
    # at fs = 2048, sqrt(2*fs) = 64 is exact and a zero at s = 2*fs cancels
    # the leading z coefficient to exactly 0.0; a subnormal numerator
    # underflows to zero: a refusal, not a shorter numerator for the polish
    ct = RationalTransfer.from_coeffs(num, [1.0, 1e3])
    with pytest.raises(ea.DiscretizationError, match="leading z coefficient 0.0 "):
        ea.bilinear_discretize(ct, fs)


def test_zero_transfer():
    cas = ea.bilinear_discretize(RationalTransfer.constant(0.0), FS)
    assert cas.gain == 0.0
    np.testing.assert_array_equal(cas.response([0.0, 100.0, 5000.0]), 0.0)
    step = df2t_stepper(cas)
    assert [step(1.0) for _ in range(8)] == [0.0] * 8
    # a zero of either sign, over any denominator, is ZERO to the byte,
    # with a gain of +0.0
    negated = (-RationalTransfer.constant(0.0), RationalTransfer.from_coeffs([0.0], [-1.0, 3.0]))
    for zero in (cas, *(ea.bilinear_discretize(ct, FS) for ct in negated)):
        assert zero.to_json() == ZERO.to_json()
        assert math.copysign(1.0, zero.gain) == 1.0


def test_integrator_keeps_its_bilinear_seed():
    # 1/s has no finite DC value to pin: the polish returns the seed, a
    # zero at z = -1 and a pole at z = 1, with no division warning (the
    # suite turns warnings into errors)
    integrator = RationalTransfer.from_coeffs([1.0], [1.0, 0.0])
    cas = ea.bilinear_discretize(integrator, FS)
    bz, _ = dsp.bilinear_transform(integrator.num, integrator.den, FS)
    assert cas.sos.tolist() == [[1.0, 1.0, 0.0, -1.0, 0.0]]
    assert cas.gain == bz[0] == pytest.approx(0.5 / FS, rel=1e-15)
    assert not cas.is_stable


def test_h1_discrete_matches_continuous_at_400(pair_1dof, cascades_1dof):
    h1d, _ = cascades_1dof
    hc = complex(pair_1dof.h1(2j * np.pi * 400.0))
    hd = complex(h1d.response(np.array([400.0]))[0])
    assert abs(hd) / abs(hc) - 1.0 == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_inband_accuracy_all_designs(ref_model, targets, fb4, name):
    pair = ea.synthesize_controller(ref_model, targets[name], fb4)
    freqs = np.arange(10.0, 1000.0001, 5.0)
    for ct in (pair.h1, pair.h2):
        cas = ea.bilinear_discretize(ct, FS)
        assert cas.is_stable
        hc = ct(2j * np.pi * freqs)
        hd = cas.response(freqs)
        assert np.max(np.abs(hd - hc) / np.abs(hc)) < 1e-3


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_bilinear_transform_matches_scipy_bitwise(ref_model, targets, fb4, name):
    # the SK refine amplifies rounding differences in its seed, so the
    # transform must reproduce scipy.signal.bilinear to the bit
    import scipy.signal

    pair = ea.synthesize_controller(ref_model, targets[name], fb4)
    for ct in (pair.h1, pair.h2):
        bz, az = dsp.bilinear_transform(ct.num, ct.den, FS)
        bz_ref, az_ref = scipy.signal.bilinear(ct.num, ct.den, FS)
        assert bz.tobytes() == bz_ref.tobytes()
        assert az.tobytes() == az_ref.tobytes()


def test_bilinear_transform_rejects_overflowed_coefficients(pair_1dof):
    # at fs = 1e300 the powers of sqrt(2*fs) leave float64: an error, not
    # NaN coefficients handed on to the least-squares polish
    with pytest.raises(ea.DiscretizationError, match="overflow"):
        dsp.bilinear_transform(pair_1dof.h1.num, pair_1dof.h1.den, 1e300)
    with pytest.raises(ea.DiscretizationError, match="overflow"):
        ea.bilinear_discretize(pair_1dof.h1, 1e300)


def coefficient(lo_exp):
    """A float coefficient: exact zero, or mantissa in (-10, 10) times 10**e."""
    return st.one_of(
        st.just(0.0),
        st.builds(
            lambda m, e: m * 10.0**e,
            st.floats(-10.0, 10.0, allow_nan=False),
            st.integers(lo_exp, 9),
        ),
    )


@st.composite
def proper_coefficients(draw):
    """(num, den) of a proper transfer of order 0-6 with non-zero leading terms."""
    order = draw(st.integers(0, 6))
    num_order = draw(st.integers(0, order))
    leading = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
    den = [draw(leading)] + draw(st.lists(coefficient(-3), min_size=order, max_size=order))
    num = [draw(leading)] + draw(
        st.lists(coefficient(-30), min_size=num_order, max_size=num_order)
    )
    return np.array(num), np.array(den)


@settings(max_examples=300, deadline=None)
@given(coeffs=proper_coefficients(), fs=st.floats(1e3, 1e6))
@example(coeffs=(np.array([1.0, -4096.0]), np.array([1.0, 1e3])), fs=2048.0)
@example(coeffs=(np.array([5e-324]), np.array([1.0, 1e3])), fs=FS)
def test_bilinear_transform_matches_scipy_on_random_transfers(coeffs, fs):
    # to the bit, exact zero coefficients included.  scipy drops leading
    # numerator coefficients at or below an absolute 1e-14 (with a warning,
    # or silently where one is exactly zero: the examples), the transform
    # refuses one at or below 1e-14 of the largest.  So scipy runs on the
    # numerator times the power of two that takes the largest coefficient
    # scipy keeps into [1, 2): the largest of all is then at least 1, and
    # power-of-two scaling is exact, so scipy drops a coefficient only
    # where the transform refuses
    import scipy.signal

    num, den = coeffs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.signal.BadCoefficients)
        scale = 2.0 ** (1 - np.frexp(np.max(np.abs(scipy.signal.bilinear(num, den, fs)[0])))[1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        bz_ref, az_ref = scipy.signal.bilinear(num * scale, den, fs)
    dropped = len(bz_ref) < max(len(num), len(den))
    try:
        bz, az = dsp.bilinear_transform(num, den, fs)
    except ea.DiscretizationError as exc:
        assert "leading z coefficient" in str(exc)
        assert dropped or abs(bz_ref[0]) <= 1e-14 * np.max(np.abs(bz_ref))
        return
    assert not caught and not dropped
    assert (bz_ref / scale).tobytes() == bz.tobytes()
    assert az.tobytes() == az_ref.tobytes()


def thirty_pass_sk_refine(b, a, ct, fs):
    """The SK polish run for all 30 passes, each building its complex system
    anew: the reference that `dsp._sk_refine`, which stacks the real system
    once and stops at a fixed point, matches to the bit."""
    nb, na = len(b) - 1, len(a) - 1
    if na == 0:
        return b, a
    freqs = np.concatenate(
        [np.linspace(1.0, 1300.0, 400), np.geomspace(1300.0, 0.4 * fs, 121)[1:]]
    )
    weight = np.where(freqs <= 1300.0, 100.0, 1.0)
    h = ct(2j * np.pi * freqs)
    h0 = float(ct(0.0))
    if not math.isfinite(h0):
        return b, a
    zi = np.exp(-2j * np.pi * freqs / fs)
    zpow_b = np.stack([zi**k for k in range(1, nb + 1)], axis=1)
    zpow_a = np.stack([zi**k for k in range(1, na + 1)], axis=1)
    cols = np.concatenate([zpow_b - 1.0, h0 - h[:, None] * zpow_a], axis=1)
    for _ in range(30):
        w = weight / np.maximum(np.abs(np.polyval(a[::-1], zi)), 1e-12)
        mat = cols * w[:, None]
        rhs = (h - h0) * w
        mat_ri = np.concatenate([mat.real, mat.imag])
        rhs_ri = np.concatenate([rhs.real, rhs.imag])
        sol, _, _, _ = np.linalg.lstsq(mat_ri, rhs_ri, rcond=None)
        b_tail, a_tail = sol[:nb], sol[nb:]
        a_new = np.concatenate([[1.0], a_tail])
        if np.any(np.abs(np.roots(a_new)) >= 1.0):
            break
        b = np.concatenate([[h0 * (1.0 + a_tail.sum()) - b_tail.sum()], b_tail])
        a = a_new
    return b, a


def assert_matches_thirty_pass_loop(ct, fs):
    import scipy.signal

    bz, az = thirty_pass_sk_refine(*scipy.signal.bilinear(ct.num, ct.den, fs), ct, fs)
    ref = ea.sos_partition(np.roots(bz / bz[0]), np.roots(az), float(bz[0]), fs)
    cas = ea.bilinear_discretize(ct, fs)
    assert cas.to_json() == ref.to_json()
    assert cas.sos.tobytes() == ref.sos.tobytes()


@pytest.mark.parametrize("fs", [8e3, 16e3, 44.1e3, 48e3, 50e3, 96e3])
@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_discretize_matches_thirty_pass_loop_on_fixtures(ref_model, targets, fb4, name, fs):
    pair = ea.synthesize_controller(ref_model, targets[name], fb4)
    for ct in (pair.h1, pair.h2):
        assert_matches_thirty_pass_loop(ct, fs)


def real_factors(freqs_hz, damping):
    """Product of s + w (even places) and s**2 + 2*damping*w*s + w**2 (odd ones)."""
    poly = np.array([1.0])
    for i, f in enumerate(freqs_hz):
        w = 2 * np.pi * f
        poly = np.convolve(poly, [1.0, 2 * damping * w, w * w] if i % 2 else [1.0, w])
    return poly


@settings(max_examples=40, deadline=None)
@given(
    poles_hz=st.lists(st.floats(10.0, 5000.0), min_size=1, max_size=4),
    pole_damping=st.floats(0.05, 2.0),
    zeros_hz=st.lists(st.floats(10.0, 5000.0), max_size=4),
    zero_damping=st.floats(-2.0, 2.0),
    gain=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
    fs=st.sampled_from([16e3, 50e3]),
)
def test_discretize_matches_thirty_pass_loop_on_random_stable_transfers(
    poles_hz, pole_damping, zeros_hz, zero_damping, gain, fs
):
    # poles in the left half-plane, zeros in either, gain scaled per
    # excess pole by 2*pi*1 kHz
    den = real_factors(poles_hz, pole_damping)
    num = real_factors(zeros_hz, zero_damping)
    assume(len(num) <= len(den))
    num = num * gain * (2 * np.pi * 1e3) ** (len(den) - len(num))
    assert_matches_thirty_pass_loop(RationalTransfer.from_coeffs(num, den), fs)


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_sk_refine_stops_at_a_fixed_point(ref_model, targets, fb4, name, monkeypatch):
    # H2's iterate repeats to the bit within a few passes, where the polish
    # stops; H1's iterates keep moving in their last digits for all 30
    pair = ea.synthesize_controller(ref_model, targets[name], fb4)
    lstsq, calls = np.linalg.lstsq, []

    def counted(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    ea.bilinear_discretize(pair.h2, FS)
    assert 1 <= len(calls) <= 8
    calls.clear()
    ea.bilinear_discretize(pair.h1, FS)
    assert len(calls) == 30


# -- SOS partitioning ---------------------------------------------------------


def test_two_real_poles_single_section():
    cas = ea.sos_partition(np.array([]), np.array([0.5, 0.3]), 2.0, FS)
    assert cas.sos.shape == (1, 5)
    b0, b1, b2, a1, a2 = cas.sos[0]
    # missing zeros are zeros at the origin: b = [1, 0, 0]
    assert (b0, b1, b2) == (1.0, 0.0, 0.0)
    assert a1 == pytest.approx(-0.8)
    assert a2 == pytest.approx(0.15)
    assert cas.gain == 2.0


@pytest.mark.parametrize(
    "poles",
    [
        [0.5 + 0.3j, 0.5 - 0.3j, 0.5 + 0.6j, 0.5 - 0.6j],
        # one conjugate's real part off within PAIR_TOL: sorted by real part
        # alone, 0.5 - 0.6j would meet 0.5 + 0.3j
        [0.5 + 0.3j, 0.5 + 1e-15 - 0.3j, 0.5 + 0.6j, 0.5 - 0.6j],
    ],
    ids=["shared-real-part", "shared-real-part-within-tolerance"],
)
def test_conjugate_pairs_sharing_a_real_part(poles):
    cas = ea.sos_partition(np.array([]), np.array(poles), 1.5, FS)
    f = np.linspace(1e-3, np.pi - 1e-3, 128) * FS / (2 * np.pi)
    z = np.exp(2j * np.pi * f / FS)
    direct = 1.5 * z**4 / np.prod([z - p for p in poles], axis=0)
    np.testing.assert_allclose(cas.response(f), direct, rtol=1e-12)


@pytest.mark.parametrize(
    "zeros, poles, message",
    [
        ([0.1, 0.2, 0.3], [0.5, 0.4], "more zeros than poles"),
        ([], [0.5 + 0.3j], "a complex root has no conjugate"),
        ([], [0.5 + 0.3j, 0.4 - 0.3j], "a complex root has no conjugate"),
    ],
    ids=["more-zeros-than-poles", "lone-complex-pole", "pair-not-conjugate"],
)
def test_partition_refusals(zeros, poles, message):
    with pytest.raises(ea.DiscretizationError, match=message):
        ea.sos_partition(np.array(zeros), np.array(poles), 1.0, FS)


def test_sections_ordered_by_pole_radius(cascades_1dof):
    for cas in cascades_1dof:
        radii = [
            np.max(np.abs(np.roots([1.0, a1, a2]))) if (a1 or a2) else 0.0
            for _, _, _, a1, a2 in cas.sos
        ]
        assert radii == sorted(radii)


def test_cascade_matches_direct_rational(pair_1dof):
    # factored response equals unfactored polynomial evaluation in z
    import scipy.signal

    bz, az = scipy.signal.bilinear(pair_1dof.h1.num, pair_1dof.h1.den, FS)
    cas = unrefined(pair_1dof.h1)
    f = np.linspace(1e-3, np.pi - 1e-3, 256) * FS / (2 * np.pi)
    z = np.exp(2j * np.pi * f / FS)
    direct = np.polyval(bz, z) / np.polyval(az, z)
    np.testing.assert_allclose(cas.response(f), direct, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_partition_equivalence(data):
    rng_seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    n_pairs = data.draw(st.integers(min_value=1, max_value=3))
    n_real = data.draw(st.integers(min_value=0, max_value=2))
    poles = []
    for _ in range(n_pairs):
        r = rng.uniform(0.1, 0.98)
        th = rng.uniform(0.05, np.pi - 0.05)
        poles += [r * np.exp(1j * th), r * np.exp(-1j * th)]
    poles += list(rng.uniform(-0.95, 0.95, n_real))
    poles = np.asarray(poles, dtype=complex)
    n_zeros = data.draw(st.integers(min_value=0, max_value=len(poles) // 2))
    zeros = []
    for _ in range(n_zeros):
        r = rng.uniform(0.1, 1.5)
        th = rng.uniform(0.05, np.pi - 0.05)
        zeros += [r * np.exp(1j * th), r * np.exp(-1j * th)]
    zeros = np.asarray(zeros[: len(poles)], dtype=complex)
    gain = rng.uniform(0.1, 5.0)

    cas = ea.sos_partition(zeros, poles, gain, FS)
    f = np.linspace(1e-3, np.pi - 1e-3, 128) * FS / (2 * np.pi)
    z = np.exp(2j * np.pi * f / FS)
    # zeros-at-origin padding convention for the missing zeros
    pad = np.zeros(len(poles) - len(zeros), dtype=complex)
    ref = gain * np.prod([z - q for q in np.concatenate([zeros, pad])], axis=0)
    ref /= np.prod([z - p for p in poles], axis=0)
    np.testing.assert_allclose(cas.response(f), ref, rtol=1e-9, atol=1e-12 * np.max(np.abs(ref)))

    # the sections are scipy's "nearest" pairing, sorted by pole radius
    import scipy.signal

    sos = scipy.signal.zpk2sos(zeros, poles, 1.0, pairing="nearest")
    radius = [np.max(np.abs(np.roots(row[3:]))) if (row[4] or row[5]) else 0.0 for row in sos]
    expected = [tuple(row / row[3]) for row in sos[np.argsort(radius, kind="stable")]]
    got = [(b0, b1, b2, 1.0, a1, a2) for b0, b1, b2, a1, a2 in cas.sos.tolist()]
    assert got == expected


def test_state_space_matches_response():
    rng = np.random.default_rng(7)
    sos = [
        [*rng.uniform(-2.0, 2.0, 3), -0.5, 0.2],
        [0.0, 1.0, 0.0, 0.0, 0.0],  # one-sample delay
        [*rng.uniform(-2.0, 2.0, 3), 0.3, 0.1],
    ]
    cas = ea.SosCascade(sos, 1.7, FS)
    # the rows over [states, input] of one tick are the matrices (A, B, C, D)
    n = 2 * len(sos)
    rows = np.eye(n + 1)
    y, nxt = dsp._cascade_rows(cas, rows[n], rows[:n])
    a, b, c, d = nxt[:, :n], nxt[:, n], y[:n], y[n]
    f = np.linspace(0.01, 3.1, 50) * FS / (2 * np.pi)
    z = np.exp(2j * np.pi * f / FS)
    h = [c @ np.linalg.solve(zk * np.eye(len(b)) - a, b) + d for zk in z]
    np.testing.assert_allclose(h, cas.response(f), rtol=1e-12)


# -- coefficient arrays -------------------------------------------------------


def test_cascade_is_immutable(cascades_1dof):
    h1, _ = cascades_1dof
    with pytest.raises(ValueError):
        h1.sos[0, 0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        h1.gain = 2.0
    # the constructor copies: the caller's array stays its own
    rows = np.array([[1.0, 0.5, 0.0, -0.2, 0.0]])
    cas = ea.SosCascade(rows, 1.0, FS)
    rows[0, 0] = 3.0
    assert cas.sos[0, 0] == 1.0


@pytest.mark.parametrize(
    "sos",
    [[1.0, 0.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0, 0.0]], []],
    ids=["flat-row", "four-numbers", "empty"],
)
def test_cascade_rejects_bad_shape(sos):
    with pytest.raises(ea.InvalidParameterError):
        ea.SosCascade(sos, 1.0, FS)


@pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf])
def test_cascade_rejects_non_finite_gain(gain):
    with pytest.raises(ea.InvalidParameterError, match="gain"):
        ea.SosCascade([[1.0, 0.0, 0.0, 0.0, 0.0]], gain, FS)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, True, "1", 1 + 0j, None])
@pytest.mark.parametrize("column", range(5))
def test_cascade_rejects_non_finite_sos_entry(entry, column):
    # a bool, a string, a complex or None is no real number, as in a frequency
    rows = [[1.0, 0.2, 0.1, -0.5, 0.25], [1.0, 0.0, 0.0, 0.0, 0.0]]
    rows[1][column] = entry
    message = f"sos entries must be finite real numbers, got {entry!r}"
    with pytest.raises(ea.InvalidParameterError, match=re.escape(message)):
        ea.SosCascade(rows, 1.0, FS)


def test_is_stable_matches_pole_radius():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a1, a2 = rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5)
        rows = [[1.0, 0.0, 0.0, -0.5, 0.2], [1.0, 0.3, 0.0, a1, a2]]  # a stable row, then a random one
        radius = np.max(np.abs(np.roots([1.0, a1, a2])))
        assert ea.SosCascade(rows, 1.0, FS).is_stable == (radius < 1.0)


def test_sine_steady_state_matches_frequency_response(ref_model, cascades_1dof):
    h1, h2 = cascades_1dof
    f = 400.0
    n = int(0.2 * FS)
    t = np.arange(n) / FS
    pf = np.sin(2 * np.pi * f * t)
    pb = 0.3 * np.sin(2 * np.pi * f * t + 0.7)
    step1, step2 = df2t_stepper(h1), df2t_stepper(h2)
    i = np.array([step1(a) + step2(b) for a, b in zip(pf, pb)])
    # project the steady-state tail on in-phase/quadrature components
    keep = t > 0.1
    basis = np.stack([np.cos(2 * np.pi * f * t[keep]), np.sin(2 * np.pi * f * t[keep])], axis=1)
    ci, *_ = np.linalg.lstsq(basis, i[keep], rcond=None)
    meas = ci[0] - 1j * ci[1]
    pf_ph = -1j  # sin
    pb_ph = 0.3 * np.exp(0.7j) * -1j
    pred = complex(h1.response(np.array([f]))[0]) * pf_ph + complex(
        h2.response(np.array([f]))[0]
    ) * pb_ph
    assert abs(meas - pred) / abs(pred) < 5e-3


# -- serialization ------------------------------------------------------------


def test_sos_json_round_trip(cascades_1dof):
    h1, _ = cascades_1dof
    d = json.loads(h1.to_json())
    assert set(d) == {"fs_hz", "gain", "sections"}
    assert [list(sec) for sec in d["sections"]] == [["b0", "b1", "b2", "a1", "a2"]] * len(h1.sos)
    clone = ea.SosCascade.from_json(h1.to_json())
    assert clone.gain == h1.gain
    assert clone.fs == h1.fs
    assert clone.sos.tobytes() == h1.sos.tobytes()
    assert clone.to_json() == h1.to_json()
    freqs = np.linspace(5.0, 2000.0, 40)
    np.testing.assert_array_equal(clone.response(freqs), h1.response(freqs))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"fs_hz": 50000.0, "gain": 1.0}', "lacks the key 'sections'"),
        ('{"fs_hz": 50000.0, "gain": 1.0, "sections": [{"b0": 1.0}]}', "lacks the key 'b1'"),
        ("[1.0, 2.0]", "malformed cascade JSON: list indices"),
        ("{not json", "malformed cascade JSON: Expecting property name"),
    ],
    ids=["no-sections", "no-b1", "list", "not-json"],
)
def test_sos_json_refuses_a_malformed_document(text, message):
    with pytest.raises(ea.InvalidParameterError, match=re.escape(message)):
        ea.SosCascade.from_json(text)


# -- closed loop --------------------------------------------------------------


def test_loop_config_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.LoopConfig(fs=-1.0)
    with pytest.raises(ea.InvalidParameterError):
        ea.LoopConfig(latency=-1)
    with pytest.raises(ea.InvalidParameterError):
        ea.LoopConfig(hold="sloppy")
    with pytest.raises(ea.InvalidParameterError):
        ea.LoopConfig(duration=0.5, transient=0.5)


@pytest.mark.parametrize(
    "latency", [1.5, 2.0, math.nan, math.inf, True, False, np.float64(1.0), "1"]
)
def test_loop_latency_must_be_an_integer(latency):
    with pytest.raises(ea.InvalidParameterError, match="latency"):
        ea.LoopConfig(latency=latency)


@pytest.mark.parametrize("latency", [0, 2, np.int64(1), np.uint8(3), dsp.MAX_LATENCY])
def test_loop_latency_accepts_numpy_integers(latency):
    assert ea.LoopConfig(latency=latency).latency == latency


@pytest.mark.parametrize("latency", [dsp.MAX_LATENCY + 1, np.int64(10**6)])
def test_loop_latency_is_bounded(latency):
    # the sampled loop's dense matrix grows as the latency squared
    assert dsp.MAX_LATENCY == 1000
    with pytest.raises(ea.InvalidParameterError, match="at most 1000"):
        ea.LoopConfig(latency=latency)


@pytest.mark.parametrize("fs", [0.0, -FS, math.nan, math.inf])
def test_sample_rate_must_be_positive_and_finite(fs):
    with pytest.raises(ea.InvalidParameterError):
        ea.LoopConfig(fs=fs)
    with pytest.raises(ea.InvalidParameterError):
        ea.SosCascade([[1.0, 0.0, 0.0, 0.0, 0.0]], 1.0, fs)
    with pytest.raises(ea.InvalidParameterError):
        ea.bilinear_discretize(RationalTransfer.constant(1.0), fs)


def test_passive_plant_reproduces_passive_impedance(ref_model):
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.4, transient=0.2)
    f = 150.0
    z = ea.measure_impedance(ref_model, (ZERO, ZERO), loop, f)
    z_ref = complex(ea.passive_impedance(ref_model)(2j * np.pi * f))
    assert abs(z / z_ref - 1.0) < 1e-2


def test_closed_loop_hits_target_at_resonance(ref_model, cascades_1dof):
    # at the target resonance the surface is matched: Z = rho0*c0
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.4, transient=0.2)
    z = ea.measure_impedance(ref_model, cascades_1dof, loop, 400.0)
    assert abs(z / ref_model.air.characteristic_impedance - 1.0) < 1e-2


def test_latency_phase_oracle(ref_model, targets, fb4, cascades_1dof):
    """One-sample latency rotates the controller path by e^{-j*omega/fs}."""
    f = 400.0
    om = 2 * np.pi * f
    s = 1j * om
    pair = ea.synthesize_controller(ref_model, targets["1dof"], fb4)
    zss = complex(ea.passive_impedance(ref_model)(s))
    zst = complex(ea.target_impedance(targets["1dof"])(s))
    fp = ref_model.pressure_factor
    for latency in (1, 2):
        loop = ea.LoopConfig(fs=FS, latency=latency, duration=0.4, transient=0.2)
        z = ea.measure_impedance(ref_model, cascades_1dof, loop, f)
        delay = np.exp(-1j * om * latency / FS)
        h1 = complex(pair.h1(s)) * delay
        h2 = complex(pair.h2(s)) * delay
        z_pred = (zss + fp * h2 / (s * ref_model.csb)) / (1.0 - fp * h1)
        assert abs(z / z_pred - 1.0) < 1e-2
        assert abs(np.angle(z / zst)) > 1e-3  # measurably off-target


def test_closed_loop_matches_achieved_impedance_under_mismatch(ref_model, targets, fb0, fb4):
    """The discrete closed loop reproduces `achieved_impedance` when the
    controller is built from a -5 % pressure-factor estimate.

    The 2-DOF target at 205.5 Hz is its anti-resonance, the point of
    acceptance criterion 5; the tolerances are criterion 8's.
    """
    f = 205.5
    assumed = ref_model.scaled(pressure_factor=0.95)
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.4, transient=0.2)
    for fb in (fb0, fb4):
        pair = ea.synthesize_controller(assumed, targets["2dof"], fb)
        cascades = (ea.bilinear_discretize(pair.h1, FS), ea.bilinear_discretize(pair.h2, FS))
        z = ea.measure_impedance(ref_model, cascades, loop, f)
        z_pred = complex(ea.achieved_impedance(ref_model, assumed, targets["2dof"], fb, [f])[0])
        assert abs(abs(z) / abs(z_pred) - 1.0) < 1e-2
        assert abs(np.angle(z / z_pred)) * 180.0 / np.pi < 1.0


def test_latency_sweep_monotone_phase(ref_model, cascades_1dof, targets):
    f = 400.0
    zst = complex(ea.target_impedance(targets["1dof"])(2j * np.pi * f))
    devs = []
    for latency in (0, 1, 2):
        loop = ea.LoopConfig(fs=FS, latency=latency, duration=0.4, transient=0.2)
        z = ea.measure_impedance(ref_model, cascades_1dof, loop, f)
        devs.append(abs(np.angle(z / zst)))
    assert devs[0] < devs[1] < devs[2]


def test_divergence_detection(ref_model):
    # strong positive displacement feedback cancels the stiffness and
    # flips its sign: the loop must blow up and be reported with a time
    k = -2.0 * ref_model.ksc * ref_model.csb / ref_model.pressure_factor
    h2 = ea.bilinear_discretize(RationalTransfer.constant(k), FS)
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.4, transient=0.2)
    with pytest.raises(ea.DivergenceError) as err:
        ea.closed_loop_sim(ref_model, (ZERO, h2), loop, 150.0)
    assert err.value.time_s is not None
    assert 0.0 < err.value.time_s <= 0.4
    # the same loop has no steady state
    with pytest.raises(ea.DivergenceError, match="spectral radius") as err:
        ea.measure_impedance(ref_model, (ZERO, h2), loop, 150.0)
    assert err.value.time_s is None


def test_causal_hold_available(ref_model, cascades_1dof):
    loop = ea.LoopConfig(fs=FS, latency=0, hold="causal", duration=0.4, transient=0.2)
    z = ea.measure_impedance(ref_model, cascades_1dof, loop, 400.0)
    # the causal hold carries an extra half-sample delay; still close, but
    # measurably worse than the centered scheme
    z_ref = ref_model.air.characteristic_impedance
    assert abs(z / z_ref - 1.0) < 5e-2


def test_timeseries_csv(tmp_path, ref_model):
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.05, transient=0.01)
    res = ea.closed_loop_sim(
        ref_model,
        (ZERO, ZERO),
        loop,
        200.0,
    )
    path = tmp_path / "ts.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,pf_pa,pb_pa,i_a,v_m_per_s"
    assert len(lines) == 1 + len(res.t)
    # the cavity pressure is the integral of the velocity over Csb: each
    # step's change matches the trapezoid rule to its (w*dt)^2/12 error
    dt = 1.0 / FS
    dpb = np.diff(res.pb) * ref_model.csb
    trapezoid = 0.5 * dt * (res.v[1:] + res.v[:-1])
    assert np.max(np.abs(dpb - trapezoid)) <= 1e-4 * np.max(np.abs(trapezoid))


def test_timeseries_csv_matches_csv_writer(tmp_path):
    # the rows are the csv module's rendering of repr(float) cells, to the byte
    vals = np.array([0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, -2.5e17, 1e16, np.inf, -np.inf, np.nan])
    res = dsp.SimulationResult(
        t=vals,
        pf=vals[::-1],
        pb=np.roll(vals, 3),
        v=np.roll(vals, 5),
        i=np.roll(vals, 7).astype(np.float32),
        f_hz=1.0,
        transient=0.0,
    )
    path = tmp_path / "ts.csv"
    res.to_csv(path)
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(["t_s", "pf_pa", "pb_pa", "i_a", "v_m_per_s"])
    for row in zip(res.t, res.pf, res.pb, res.i, res.v):
        writer.writerow([repr(float(x)) for x in row])
    assert path.read_bytes() == ref.getvalue().encode()


def test_cascade_rate_must_match_loop(ref_model, cascades_1dof):
    loop = ea.LoopConfig(fs=2 * FS, latency=0, duration=0.05, transient=0.01)
    with pytest.raises(ea.InvalidParameterError, match="sample rate"):
        ea.measure_impedance(ref_model, cascades_1dof, loop, 400.0)
    with pytest.raises(ea.InvalidParameterError, match="sample rate"):
        ea.closed_loop_sim(ref_model, cascades_1dof, loop, 400.0)


@pytest.mark.parametrize(
    "duration, transient, fit_ticks",
    [(1e-5, 0.0, 0), (1e-4, 9.5e-5, 0), (1e-4, 7.9e-5, 1), (1e-4, 5.9e-5, 2)],
    ids=["no-tick", "no-tick-after-transient", "one-tick", "two-ticks"],
)
def test_closed_loop_sim_needs_two_ticks_to_fit(ref_model, duration, transient, fit_ticks):
    # ticks at 0, 20, ..., 80 us for duration 1e-4 s at 50 kHz; none for 1e-5 s
    loop = ea.LoopConfig(fs=FS, latency=0, duration=duration, transient=transient)
    if fit_ticks < 2:
        with pytest.raises(ea.InvalidParameterError, match="fewer than 2 ticks"):
            ea.closed_loop_sim(ref_model, (ZERO, ZERO), loop, 205.5)
    else:
        res = ea.closed_loop_sim(ref_model, (ZERO, ZERO), loop, 205.5)
        assert np.count_nonzero(res.t >= transient) == 2
        assert np.isfinite(res.measured_impedance())


@pytest.mark.parametrize(
    "f_hz",
    [math.nan, math.inf, -math.inf, 0.0, -1.0, [100.0, math.nan, 400.0]],
    ids=["nan", "inf", "-inf", "zero", "negative", "mixed-array"],
)
def test_bad_frequency_is_refused(ref_model, cascades_1dof, f_hz):
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.05, transient=0.01)
    with pytest.raises(ea.InvalidParameterError, match="f_hz"):
        ea.measure_impedance(ref_model, cascades_1dof, loop, f_hz)
    with pytest.raises(ea.InvalidParameterError, match="f_hz"):
        ea.closed_loop_sim(ref_model, cascades_1dof, loop, f_hz)


@pytest.mark.parametrize("amplitude", [0.0, math.nan, math.inf, -math.inf])
def test_bad_amplitude_is_refused(ref_model, cascades_1dof, amplitude):
    # a zero drive has no impedance to fit, and a non-finite one is not a
    # divergence of the loop
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.05, transient=0.01)
    with pytest.raises(ea.InvalidParameterError, match="amplitude must be finite and nonzero"):
        ea.closed_loop_sim(ref_model, cascades_1dof, loop, 400.0, amplitude)


def test_negative_amplitude_flips_the_phase(ref_model, cascades_1dof):
    loop = ea.LoopConfig(fs=FS, latency=0, duration=0.05, transient=0.01)
    pos = ea.closed_loop_sim(ref_model, cascades_1dof, loop, 400.0, 2.0)
    neg = ea.closed_loop_sim(ref_model, cascades_1dof, loop, 400.0, -2.0)
    np.testing.assert_allclose(neg.v, -pos.v, rtol=0, atol=1e-12 * np.max(np.abs(pos.v)))
    assert neg.measured_impedance() == pytest.approx(pos.measured_impedance(), rel=1e-9)


@pytest.mark.parametrize(
    "latency, hold", [(0, "centered"), (1, "centered"), (2, "centered"), (0, "causal"), (2, "causal")]
)
def test_band_matches_scalar_calls(ref_model, cascades_1dof, latency, hold):
    # a scalar gives a complex, an array an array of its shape; each band
    # entry is its scalar call
    loop = ea.LoopConfig(fs=FS, latency=latency, hold=hold)
    freqs = np.array([[50.0, 205.5, 400.0], [700.0, 990.0, 4000.0]])
    band = ea.measure_impedance(ref_model, cascades_1dof, loop, freqs)
    assert band.shape == freqs.shape and band.dtype == complex
    for f, z in zip(freqs.flat, band.flat):
        for scalar in (float(f), np.float64(f), np.array(f)):
            ref = ea.measure_impedance(ref_model, cascades_1dof, loop, scalar)
            assert type(ref) is complex
            assert abs(z / ref - 1.0) <= 1e-14
    row = ea.measure_impedance(ref_model, cascades_1dof, loop, list(freqs[1]))
    assert row.shape == (3,)
    assert np.all(np.abs(row / band[1] - 1.0) <= 1e-14)


def test_band_builds_one_loop(ref_model, cascades_1dof, monkeypatch):
    """A band builds the sampled loop and checks its spectral radius once,
    and an unstable loop raises once, whatever the grid size."""
    k = -2.0 * ref_model.ksc * ref_model.csb / ref_model.pressure_factor
    unstable = (ZERO, ea.bilinear_discretize(RationalTransfer.constant(k), FS))
    builds, radii = [], []
    build, eigvals = dsp.sampled_loop, np.linalg.eigvals
    monkeypatch.setattr(dsp, "sampled_loop", lambda *a: builds.append(1) or build(*a))
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: radii.append(1) or eigvals(m))
    freqs = ea.default_frequency_grid()
    loop = ea.LoopConfig(fs=FS, latency=1)
    band = ea.measure_impedance(ref_model, cascades_1dof, loop, freqs)
    assert band.shape == freqs.shape and np.all(np.isfinite(band))
    assert len(builds) == len(radii) == 1
    with pytest.raises(ea.DivergenceError, match="spectral radius"):
        ea.measure_impedance(ref_model, unstable, loop, freqs)
    assert len(builds) == len(radii) == 2


def test_band_memory_is_bounded(ref_model, targets, fb0):
    # one system per frequency: stacked, the default grid's 496 systems at
    # latency 100 held 179 MB (the (n_f, m, m) matrix alone grows as m^2)
    pair = ea.synthesize_controller(ref_model, targets["1dof"], fb0)
    cascades = ea.bilinear_discretize(pair.h1, FS), ea.bilinear_discretize(pair.h2, FS)
    loop = ea.LoopConfig(fs=FS, latency=100)
    tracemalloc.start()
    try:
        band = ea.measure_impedance(ref_model, cascades, loop, ea.default_frequency_grid())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.shape == (496,) and np.all(np.isfinite(band))
    assert peak < 16e6


def spectral_radius(model, cascades, loop):
    return float(np.max(np.abs(np.linalg.eigvals(dsp.sampled_loop(model, *cascades, loop).f))))


@pytest.mark.parametrize("hold", ["centered", "causal"])
@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_latency_boundary_at_8khz(ref_model, targets, fb0, fb4, name, hold):
    """At 8 kHz the loop with kg = 4 is stable through latency 4 and not at
    latency 5 (625 us); without the rear-pressure path (kg = 0) it stays
    stable through latency 8.  Measured: rho(F) <= 0.99441 at latency 4 and
    1.00701 (causal) or 1.00082 (centered) at latency 5, where a 205.5 Hz
    run from rest diverges at about 0.39 s (causal) or 3.3-3.4 s (centered)."""
    fs = 8_000.0
    freqs = np.array([100.0, 205.5, 400.0])

    def realize(fb):
        pair = ea.synthesize_controller(ref_model, targets[name], fb)
        return ea.bilinear_discretize(pair.h1, fs), ea.bilinear_discretize(pair.h2, fs)

    def loop(latency):
        return ea.LoopConfig(fs=fs, latency=latency, hold=hold)

    kg0, kg4 = realize(fb0), realize(fb4)
    assert max(spectral_radius(ref_model, kg0, loop(n)) for n in range(9)) < 1.0
    assert max(spectral_radius(ref_model, kg4, loop(n)) for n in range(5)) < 1.0
    assert spectral_radius(ref_model, kg4, loop(5)) > 1.0
    for cascades, latency in ((kg0, 8), (kg4, 4)):
        assert np.all(np.isfinite(ea.measure_impedance(ref_model, cascades, loop(latency), freqs)))
    with pytest.raises(ea.DivergenceError, match="spectral radius"):
        ea.measure_impedance(ref_model, kg4, loop(5), freqs)

    # the time domain agrees: from rest, latency 4 stays bounded over 5 s
    # and latency 5 diverges within them
    def simulate(latency, duration=5.0):
        run = ea.LoopConfig(fs=fs, latency=latency, hold=hold, duration=duration, transient=duration / 2)
        return ea.closed_loop_sim(ref_model, kg4, run, 205.5)

    sim = simulate(4)
    assert all(np.all(np.isfinite(getattr(sim, k))) for k in ("v", "pb", "i"))
    with pytest.raises(ea.DivergenceError) as diverged:
        simulate(5)
    t_div = diverged.value.time_s
    assert 0.0 < t_div < 5.0
    # it is the time of the first tick past the limit, in whichever block of
    # ticks it falls: a run that ends just before it does not diverge
    assert np.all(np.abs(simulate(5, t_div).v) <= ea.dsp.DIVERGENCE_FACTOR / ref_model.rss)
    with pytest.raises(ea.DivergenceError) as again:
        simulate(5, t_div + 1.0 / fs)
    assert again.value.time_s == t_div


# -- RK4 oracle -----------------------------------------------------------------


def df2t_stepper(cas):
    """Per-sample direct-form-II-transposed filter over the rows of `cas.sos`.

    Returns step(x), which feeds one input sample through the gain and the
    sections from a zero state and returns the output sample.
    """
    rows = cas.sos.tolist()
    states = [[0.0, 0.0] for _ in rows]

    def step(x):
        y = x * cas.gain
        for (b0, b1, b2, a1, a2), s in zip(rows, states):
            x = y
            y = b0 * x + s[0]
            s[0] = b1 * x - a1 * y + s[1]
            s[1] = b2 * x - a2 * y
        return y

    return step


def rk4_closed_loop(model, h1, h2, loop, f_hz, amplitude):
    """Independent reference for the closed loop: the plant integrated by
    RK4 between ticks against the cascades stepped one sample at a time.

    Centered hold: each command is held over the period window centered on
    its tick, so a period's second half takes the next command; at latency
    0 that command comes from the plant state predicted a whole period
    ahead under the current one.
    """
    step1, step2 = df2t_stepper(h1), df2t_stepper(h2)
    dt = 1.0 / loop.fs
    n = int(round(loop.duration * loop.fs))
    t = np.arange(n) * dt
    w = 2.0 * math.pi * f_hz

    def pf(tt):
        return amplitude * math.sin(w * tt)

    def deriv(v, xi, p, cur):
        dv = (p - model.rss * v - model.ksc * xi - model.pressure_factor * cur) / model.mss
        return dv, v

    def rk4(v, xi, t0, h, cur):
        k1 = deriv(v, xi, pf(t0), cur)
        k2 = deriv(v + 0.5 * h * k1[0], xi + 0.5 * h * k1[1], pf(t0 + 0.5 * h), cur)
        k3 = deriv(v + 0.5 * h * k2[0], xi + 0.5 * h * k2[1], pf(t0 + 0.5 * h), cur)
        k4 = deriv(v + h * k3[0], xi + h * k3[1], pf(t0 + h), cur)
        return (
            v + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
            xi + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        )

    line = [0.0] * loop.latency  # computed commands not yet applied

    def command(p, pb):
        line.append(step1(p) + step2(pb))
        return line.pop(0)

    centered = loop.hold == "centered"
    predict = centered and loop.latency == 0
    v = xi = 0.0
    vs, xis, cur = np.zeros(n), np.zeros(n), np.zeros(n)
    if predict:
        u_next = command(pf(0.0), 0.0)
    for k in range(n):
        vs[k], xis[k] = v, xi
        u = u_next if predict else command(pf(t[k]), xi / model.csb)
        cur[k] = u
        if not centered:
            v, xi = rk4(v, xi, t[k], dt, u)
            continue
        if predict:
            _, xi_pred = rk4(v, xi, t[k], dt, u)
            u_next = command(pf(t[k] + dt), xi_pred / model.csb)
        else:
            u_next = line[0]  # released at the next tick
        v, xi = rk4(v, xi, t[k], 0.5 * dt, u)
        v, xi = rk4(v, xi, t[k] + 0.5 * dt, 0.5 * dt, u_next)
    pf_all = amplitude * np.sin(w * t)
    return dsp.SimulationResult(
        t=t, pf=pf_all, pb=xis / model.csb, v=vs, i=cur, f_hz=f_hz, transient=loop.transient
    )


@pytest.mark.parametrize("hold", ["centered", "causal"])
@pytest.mark.parametrize("latency", [0, 1, 2, 3])
def test_exact_loop_matches_rk4_oracle(ref_model, cascades_1dof, latency, hold):
    f, amplitude = 400.0, 2.0
    loop = ea.LoopConfig(fs=FS, latency=latency, hold=hold, duration=0.2, transient=0.1)
    oracle = rk4_closed_loop(ref_model, *cascades_1dof, loop, f, amplitude)
    sim = ea.closed_loop_sim(ref_model, cascades_1dof, loop, f, amplitude)
    for name in ("v", "pb", "i"):
        ref = getattr(oracle, name)
        assert np.max(np.abs(getattr(sim, name) - ref)) <= 1e-6 * np.max(np.abs(ref))
    # each series is fitted at the frequency it was simulated at
    assert sim.f_hz == f
    z_oracle = oracle.measured_impedance()
    assert abs(sim.measured_impedance() / z_oracle - 1.0) < 1e-6
    assert abs(ea.measure_impedance(ref_model, cascades_1dof, loop, f) / z_oracle - 1.0) < 1e-6
    band = ea.measure_impedance(ref_model, cascades_1dof, loop, [100.0, f, 990.0])
    assert abs(band[1] / z_oracle - 1.0) < 1e-6


# -- per-tick oracle -------------------------------------------------------------


def per_tick_closed_loop(model, cascades, loop, f_hz, amplitude=1.0):
    """Reference for `closed_loop_sim`: the exact discrete model of
    `sampled_loop` stepped one tick at a time from rest, s[k+1] = F s[k] +
    Im(amplitude e^{jw t_k} G), every state kept.  Raises DivergenceError
    stamped with the first tick whose velocity leaves the limit."""
    dlti = dsp.sampled_loop(model, *cascades, loop)
    n = int(round(loop.duration * loop.fs))
    t = np.arange(n) / loop.fs
    w = 2.0 * math.pi * f_hz
    pf = amplitude * np.sin(w * t)
    drive = ((amplitude * np.exp(1j * w * t))[:, None] * dlti.drive(w)[1]).imag
    states = np.empty((n, len(dlti.f)))
    s = np.zeros(len(dlti.f))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            states[k] = s
            s = dlti.f @ s + drive[k]
        v = states[:, 0]
        limit = dsp.DIVERGENCE_FACTOR * max(np.max(np.abs(pf)), 1e-30) / model.rss
        diverged = ~np.isfinite(v) | (np.abs(v) > limit)
    if diverged.any():
        raise ea.DivergenceError("closed loop diverged", time_s=float(t[np.argmax(diverged)]))
    return dsp.SimulationResult(
        t=t,
        pf=pf,
        pb=states[:, 1] / model.csb,
        v=v,
        i=states @ dlti.c + dlti.d * pf,
        f_hz=f_hz,
        transient=loop.transient,
    )


def assert_series_close(sim, ref, rtol):
    """Same grid and excitation to the bit; v, pb and i within rtol of each
    reference series' largest magnitude."""
    assert np.array_equal(sim.t, ref.t) and np.array_equal(sim.pf, ref.pf)
    for name in ("v", "pb", "i"):
        want = getattr(ref, name)
        assert np.max(np.abs(getattr(sim, name) - want)) <= rtol * np.max(np.abs(want)), name


@pytest.fixture(scope="module")
def realized(ref_model, targets, fb4):
    """(name, fs) -> the fixture's (H1, H2) at fs with kg = 4, made once."""
    made = {}

    def realize(name, fs):
        if (name, fs) not in made:
            pair = ea.synthesize_controller(ref_model, targets[name], fb4)
            made[name, fs] = (ea.bilinear_discretize(pair.h1, fs), ea.bilinear_discretize(pair.h2, fs))
        return made[name, fs]

    return realize


@pytest.mark.parametrize("fs", [8_000.0, FS])
@pytest.mark.parametrize(
    "latency, hold", [(0, "centered"), (1, "centered"), (1, "causal"), (3, "causal")]
)
@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_block_propagation_matches_per_tick_oracle(ref_model, realized, name, latency, hold, fs):
    # 0.25 s: several whole blocks of ticks and a partial one at either rate
    loop = ea.LoopConfig(fs=fs, latency=latency, hold=hold, duration=0.25, transient=0.125)
    cascades = realized(name, fs)
    sim = ea.closed_loop_sim(ref_model, cascades, loop, 205.5, 2.0)
    assert_series_close(sim, per_tick_closed_loop(ref_model, cascades, loop, 205.5, 2.0), 1e-10)


@pytest.mark.parametrize("latency", [300, dsp.MAX_LATENCY])
def test_high_latency_matches_per_tick_oracle(ref_model, cascades_1dof, latency):
    # 1000 ticks: a few ticks per block, so the loop matrix is still squared
    loop = ea.LoopConfig(fs=FS, latency=latency, duration=0.02, transient=0.01)
    m = len(dsp.sampled_loop(ref_model, *cascades_1dof, loop).f)
    assert 1 < dsp._block_ticks(m, 1000) < 64
    sim = ea.closed_loop_sim(ref_model, cascades_1dof, loop, 205.5)
    assert_series_close(sim, per_tick_closed_loop(ref_model, cascades_1dof, loop, 205.5), 1e-10)


def test_sampled_loop_output_row_owns_its_data(ref_model, cascades_1dof):
    # a view of the build's (n+1, n+4) command array would keep it alive
    # with the loop: 16.3 MB held at latency 1000 where F needs 8.2 MB
    dlti = dsp.sampled_loop(ref_model, *cascades_1dof, ea.LoopConfig(fs=FS, latency=300))
    assert dlti.c.base is None
    assert dlti.c.shape == (len(dlti.f),)


def diverging_loop(hold, duration=5.0):
    """8 kHz at latency 5: unstable with kg = 4 (see test_latency_boundary_at_8khz)."""
    return ea.LoopConfig(fs=8_000.0, latency=5, hold=hold, duration=duration, transient=duration / 2)


@pytest.mark.parametrize("hold", ["centered", "causal"])
@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_divergence_stamp_matches_per_tick_oracle(ref_model, realized, name, hold):
    cascades = realized(name, 8_000.0)
    with pytest.raises(ea.DivergenceError) as oracle:
        per_tick_closed_loop(ref_model, cascades, diverging_loop(hold), 205.5)
    with pytest.raises(ea.DivergenceError) as sim:
        ea.closed_loop_sim(ref_model, cascades, diverging_loop(hold), 205.5)
    assert sim.value.time_s == oracle.value.time_s


def test_block_size_moves_neither_series_nor_stamp(ref_model, realized, monkeypatch):
    # one tick per block (the per-tick recurrence), a cap that is no power
    # of two, and the default cap
    cascades = realized("1dof", 8_000.0)
    stamps, series = [], []
    for cap in (1, 7, 1024):
        monkeypatch.setattr(dsp, "_CHECK_TICKS", cap)
        with pytest.raises(ea.DivergenceError) as err:
            ea.closed_loop_sim(ref_model, cascades, diverging_loop("causal"), 205.5)
        stamps.append(err.value.time_s)
        # the same run up to the last tick before the limit
        series.append(ea.closed_loop_sim(ref_model, cascades, diverging_loop("causal", stamps[0]), 205.5))
    assert stamps[1] == stamps[0] and stamps[2] == stamps[0]
    for sim in series[1:]:
        assert_series_close(sim, series[0], 1e-12)


def test_block_ticks_bounds():
    for states in (9, 16, 39, 310, 1010):
        for ticks in (2, 1000, 50_000, 10**7):
            b = dsp._block_ticks(states, ticks)
            assert b & (b - 1) == 0 and 1 <= b <= dsp._CHECK_TICKS
            assert b == 1 or b * states <= min(dsp._TABLE_ENTRIES, 8 * ticks)


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_fixture_runs_take_blocks_of_1024_ticks(ref_model, realized, name):
    # the simulate default: 50 kHz over 1 s, one Python iteration per 1024 ticks
    m = len(dsp.sampled_loop(ref_model, *realized(name, FS), ea.LoopConfig()).f)
    assert m <= 16
    assert dsp._block_ticks(m, 50_000) == 1024


@pytest.mark.parametrize("f_hz", [25_000.0, 50_000.0, 75_000.0])
def test_multiple_of_half_fs_is_refused(ref_model, cascades_1dof, f_hz):
    # the sampled sine vanishes: its fit would flip the sign of Re Z
    with pytest.raises(ea.InvalidParameterError, match="fs/2"):
        ea.closed_loop_sim(ref_model, cascades_1dof, ea.LoopConfig(), f_hz)
    with pytest.raises(ea.InvalidParameterError, match="fs/2"):
        ea.LoopConfig().time_grid(f_hz)


@pytest.mark.parametrize("fs", [8_000.0, 44_100.0, 50_000.0])
def test_tick_times_are_correctly_rounded(fs):
    # k/fs rounded once: k * (1/fs) rounds twice, one ulp off at most ticks
    t = ea.LoopConfig(fs=fs).time_grid(205.5)
    assert t.tobytes() == (np.arange(int(fs)) / fs).tobytes()


def test_just_below_half_fs_still_fits(ref_model, cascades_1dof):
    # singular-value ratio ~9e-5, well above FIT_RATIO_MIN
    loop, f = ea.LoopConfig(), 24_999.9999
    z_fit = ea.closed_loop_sim(ref_model, cascades_1dof, loop, f).measured_impedance()
    z = ea.measure_impedance(ref_model, cascades_1dof, loop, f)
    assert z_fit.real > 0 and abs(z_fit / z - 1.0) < 1e-9


def test_simulation_memory_is_bounded(tmp_path, ref_model, realized):
    # 2-DOF at the simulate default (50 000 ticks): no (ticks, states)
    # array and no series of Python floats whole
    cascades = realized("2dof", FS)
    tracemalloc.start()
    try:
        ea.closed_loop_sim(ref_model, cascades, ea.LoopConfig(), 205.5).to_csv(tmp_path / "ts.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def one_shot_write_columns(path, header, columns):
    """`write_columns` as it was before it rendered rows in chunks."""
    *cols, last = [np.asarray(col, dtype=float).tolist() for col in columns]
    cells = [map(repr, col) for col in cols] + [map("{!r}\n".format, last)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(",".join, zip(*cells)))


CHUNK = _csvio._CHUNK_ROWS


@pytest.mark.parametrize(
    "rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1]
)
def test_chunked_columns_keep_the_bytes(tmp_path, rows):
    special = [0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, -2.5e17, 1e16, np.inf, -np.inf, np.nan]
    vals = np.resize(special, rows) * np.random.default_rng(rows).uniform(0.5, 2.0, rows)
    columns = [np.arange(rows) / 7.0, vals, list(vals[::-1]), vals.astype(np.float32)]
    header = ["a", "b", "c", "d"]
    # four columns, and one: a row template of a single "%r\n"
    for width in (4, 1):
        _csvio.write_columns(tmp_path / "chunked.csv", header[-width:], columns[-width:])
        one_shot_write_columns(tmp_path / "one_shot.csv", header[-width:], columns[-width:])
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one_shot.csv").read_bytes()


# -- plant half step --------------------------------------------------------------


def van_loan_step(a, b, tau):
    """Reference (e^{a tau}, int_0^tau e^{a s} ds b): scipy's expm of the Van
    Loan block [[a, b], [0, 0]] tau (Van Loan, IEEE TAC 1978).

    It is accurate in norm only: the displacement entry of the hold
    integral, ~tau/2 of the velocity entry, can carry ~1e-10 relative error.
    """
    from scipy.linalg import expm

    block = np.zeros((3, 3))
    block[:2, :2] = a
    block[:2, 2] = b
    e = expm(block * tau)
    return e[:2, :2], e[:2, 2]


def decimal_step(a, b, tau):
    """Reference (e^{a tau}, int_0^tau e^{a s} ds b) accurate entry by entry.

    Sums the Taylor series of the Van Loan block in 50-digit decimal
    arithmetic.  The state [v, xi] is first rescaled to [v, s xi] with
    s = sqrt(|a01 / a10|), which balances the plant so that no entry of
    the block exceeds ~2 max|eig(a)| tau and the series converges without
    large terms; the similarity is undone exactly afterwards.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        (a00, a01), (a10, a11) = [[Decimal(x) for x in row] for row in a.tolist()]
        b0, b1 = (Decimal(x) for x in b.tolist())
        t = Decimal(tau)
        s = abs(a01 / a10).sqrt()
        m = [[a00 * t, a01 / s * t, b0 * t], [a10 * s * t, a11 * t, b1 * s * t], [0, 0, 0]]
        cols = list(zip(*m))
        term = [[Decimal(int(i == j)) for j in range(3)] for i in range(3)]
        total = term
        for k in range(1, 80):
            term = [[sum(x * y for x, y in zip(row, col)) / k for col in cols] for row in term]
            total = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(total, term)]
        phi = [[total[0][0], total[0][1] * s], [total[1][0] / s, total[1][1]]]
        gam = [total[0][2], total[1][2] / s]
        return np.array(phi, dtype=float), np.array(gam, dtype=float)


def fast_eigenvalue_ratio(zeta):
    """max|eig(a)| / w0 at damping ratio zeta."""
    return max(1.0, zeta + math.sqrt(max(zeta * zeta - 1.0, 0.0)))


def driver_plant(rm, km, b0):
    """The (a, b) of the plant `dsp._plant_step` takes as (rm, km, b0)."""
    return np.array([[-rm, -km], [1.0, 0.0]]), np.array([b0, 0.0])


@st.composite
def plants(draw):
    """(rm, km, b0, T) of a plant with max|eig(a)| T <= 1, fs = 1/T in 1 kHz..1 MHz.

    rss and ksc are drawn through the fast eigenvalue |lambda| and the
    damping ratio zeta: under-, near-critically and over-damped plants
    all occur, and the bound holds by construction.
    """
    fs = 10 ** draw(st.floats(3.0, 6.0))
    mss = 10 ** draw(st.floats(-4.0, -1.0))
    lam_t = 10 ** draw(st.floats(-4.0, 0.0))  # max|eig(a)| T
    zeta = draw(
        st.one_of(
            st.floats(1e-3, 0.95),
            st.floats(1.0 - 1e-6, 1.0 + 1e-6),
            st.floats(1.05, 10.0),
        )
    )
    w0 = lam_t * fs / fast_eigenvalue_ratio(zeta)
    rss, ksc = 2.0 * zeta * w0 * mss, w0 * w0 * mss
    rm, km, b0 = rss / mss, ksc / mss, 1.0 / mss
    a, _ = driver_plant(rm, km, b0)
    assume(np.max(np.abs(np.linalg.eigvals(a))) / fs <= 1.0)
    return rm, km, b0, 1.0 / fs


def assert_step_close(rm, km, b0, tau):
    phi, gam = dsp._plant_step(rm, km, b0, tau)
    a, b = driver_plant(rm, km, b0)
    # scipy's expm: 1e-13 relative in norm
    phi_ref, gam_ref = van_loan_step(a, b, tau)
    assert np.max(np.abs(phi - phi_ref)) <= 1e-13 * np.max(np.abs(phi_ref))
    assert np.max(np.abs(gam - gam_ref)) <= 1e-13 * np.max(np.abs(gam_ref))
    # the decimal series: 1e-13 relative in every entry
    phi_ref, gam_ref = decimal_step(a, b, tau)
    assert np.all(np.abs(phi - phi_ref) <= 1e-13 * np.abs(phi_ref))
    assert np.all(np.abs(gam - gam_ref) <= 1e-13 * np.abs(gam_ref))


@settings(max_examples=150, deadline=None)
@given(plants())
def test_property_plant_step_matches_van_loan(plant):
    rm, km, b0, dt = plant
    assert_step_close(rm, km, b0, 0.5 * dt)


@pytest.mark.parametrize("fs", [1e3, 5e4, 1e6])
def test_plant_step_critical_damping(fs):
    # mss 0.5, rss 4, ksc 8: the double eigenvalue -4, so delta = 0 exactly
    rm, km, b0 = 8.0, 16.0, 2.0
    assert (0.5 * rm) ** 2 == km
    assert_step_close(rm, km, b0, 0.5 / fs)


@pytest.mark.parametrize("zeta", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("lam_t", [3.0, 8.0])
def test_plant_step_long_steps(zeta, lam_t):
    # max|eig(a)| T/2 > 1: the step is built from squared half steps
    w0 = lam_t * FS / fast_eigenvalue_ratio(zeta)
    assert_step_close(2.0 * zeta * w0, w0 * w0, 1e3, 0.5 / FS)


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_closed_loop_plant_step_matches_van_loan(ref_model, targets, fb4, monkeypatch, name):
    """The steady state is the same on the closed-form half step as on
    scipy's Van Loan exponential, on the three hold branches at 205.5 Hz."""
    pair = ea.synthesize_controller(ref_model, targets[name], fb4)
    cascades = (ea.bilinear_discretize(pair.h1, FS), ea.bilinear_discretize(pair.h2, FS))
    loops = [
        ea.LoopConfig(fs=FS, latency=latency, hold=hold)
        for latency, hold in ((0, "centered"), (1, "centered"), (1, "causal"))
    ]
    z = [ea.measure_impedance(ref_model, cascades, loop, 205.5) for loop in loops]
    monkeypatch.setattr(
        dsp, "_plant_step", lambda rm, km, b0, tau: van_loan_step(*driver_plant(rm, km, b0), tau)
    )
    z_ref = [ea.measure_impedance(ref_model, cascades, loop, 205.5) for loop in loops]
    for got, ref in zip(z, z_ref):
        assert abs(got / ref - 1.0) <= 1e-12
