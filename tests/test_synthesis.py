import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eabsorb as ea

# frozen oracles (40-digit independent evaluation)
ZST_1DOF_2055 = 411.6 - 4127.9586824817518j
ZST_1DOF_400 = 411.6 + 0.0j
G_400 = 1003.9024390243902 - 803.1219512195122j
CUBIC_ABC = (3377.8155918674012, 6817474.6108774922, 5237611263.1129259)
KG_BOUND_REF = -0.77919635188912711


def test_target_impedance_single(rc, targets):
    zst = ea.target_impedance(targets["1dof"])
    assert complex(zst(2j * np.pi * 205.5)) == pytest.approx(ZST_1DOF_2055, rel=1e-12)
    # resistive and matched at its resonance
    assert complex(zst(2j * np.pi * 400.0)) == pytest.approx(ZST_1DOF_400, abs=1e-6)


def test_target_impedance_parallel_sum(rc, targets):
    # the 2-DOF admittance is the sum of the branch admittances
    zst = ea.target_impedance(targets["2dof"])
    b1 = ea.target_impedance(ea.TargetSpec.multi([(rc, 100.0, 7.0)]))
    b2 = ea.target_impedance(ea.TargetSpec.multi([(rc, 400.0, 7.0)]))
    s = 2j * np.pi * np.linspace(20.0, 900.0, 57)
    np.testing.assert_allclose(1.0 / zst(s), 1.0 / b1(s) + 1.0 / b2(s), rtol=1e-9)


def test_feedback_filter_value(ref_model, fb4):
    g = ea.feedback_filter(ref_model, fb4)
    assert complex(g(2j * np.pi * 400.0)) == pytest.approx(G_400, rel=1e-12)
    # DC gain rho0*c0*kg
    assert complex(g(0.0)) == pytest.approx(4.0 * 411.6, rel=1e-12)


def test_feedback_filter_zero_gain(ref_model, fb0):
    assert ea.feedback_filter(ref_model, fb0).is_zero


@pytest.mark.parametrize("kg", [0.5, 1.0, 2.0])
def test_feedback_filter_dc_gain(ref_model, kg):
    g = ea.feedback_filter(ref_model, ea.FeedbackSpec.from_hz(kg, 500.0))
    assert complex(g(0.0)) == pytest.approx(kg * 411.6, rel=1e-12)


def test_zero_feedback_adds_no_pole(ref_model, targets, fb0, fb4):
    # at kg = 0 the feedback is the constant 0, not 0/(s + omega_g): h2 is
    # zero and h1 keeps the degree of 1 - Zss/Zst
    assert ea.feedback_filter(ref_model, fb0).den_degree == 0
    pair = ea.synthesize_controller(ref_model, targets["1dof"], fb0)
    assert pair.h2.is_zero
    assert pair.h1.den_degree < ea.synthesize_controller(ref_model, targets["1dof"], fb4).h1.den_degree


def test_admissibility_of_reference_targets(ref_model, targets, fb4):
    # a bank has the mass asymptote and the pole at s = 0 by construction,
    # so synthesis checks only the compliance asymptote
    for spec in targets.values():
        zst = ea.target_impedance(spec)
        assert zst.num_degree == zst.den_degree + 1
        assert zst.den[-1] == 0.0 and zst.num[-1] > 0.0
        ea.synthesize_controller(ref_model, spec, fb4)


def test_admissibility_rejects_flat():
    # a resonance this low underflows the target's constant coefficients,
    # so its impedance is flat, not a compliance, at low frequency
    low = ea.TargetSpec.multi([(411.6, 1e-300, 1.0)])
    fb = ea.FeedbackSpec.from_hz(4.0, 500.0)
    message = "inadmissible target impedance: no compliance asymptote"
    with pytest.raises(ea.SynthesisError, match=message):
        ea.synthesize_controller(ea.table_reference_model(), low, fb)


def test_subnormal_resonance_is_a_synthesis_error():
    # at 1e-300 Hz the target's constant coefficients underflow (see
    # test_admissibility_rejects_flat); at a subnormal frequency its whole
    # admittance does, and has no inverse
    low = ea.TargetSpec.multi([(411.6, 5e-324, 1.0)])
    fb = ea.FeedbackSpec.from_hz(4.0, 500.0)
    with pytest.raises(ea.SynthesisError, match="target admittance underflows to zero"):
        ea.synthesize_controller(ea.table_reference_model(), low, fb)


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_controller_constraint_identity(ref_model, targets, fb4, name):
    """The two filters satisfy the synthesis constraint on a dense grid:

    H1 + H2/(s*Csb*Zst) = (1/F)*(1 - Zss/Zst)
    """
    tg = targets[name]
    pair = ea.synthesize_controller(ref_model, tg, fb4)
    s = 2j * np.pi * np.linspace(10.0, 1000.0, 496)
    zst = ea.target_impedance(tg)(s)
    zss = ea.passive_impedance(ref_model)(s)
    lhs = pair.h1(s) + pair.h2(s) / (s * ref_model.csb * zst)
    rhs = (1.0 / ref_model.pressure_factor) * (1.0 - zss / zst)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9)


def test_controller_proper(ref_model, targets, fb4, fb0):
    for fb in (fb4, fb0):
        for tg in targets.values():
            pair = ea.synthesize_controller(ref_model, tg, fb)
            assert pair.h1.is_proper
            assert pair.h2.is_proper
            if fb.kg == 0.0:
                assert pair.h2.is_zero


def test_controller_stable_poles(ref_model, targets, fb4):
    for tg in targets.values():
        pair = ea.synthesize_controller(ref_model, tg, fb4)
        assert np.all(np.roots(pair.h1.den).real < 0)
        assert np.all(np.roots(pair.h2.den).real < 0)


# -- stability ----------------------------------------------------------------


def test_stability_cubic_oracle(ref_model, fb4):
    rep = ea.stability_report(ref_model, fb4)
    a, b, c = CUBIC_ABC
    assert rep.a == pytest.approx(a, rel=1e-12)
    assert rep.b == pytest.approx(b, rel=1e-12)
    assert rep.c == pytest.approx(c, rel=1e-12)
    assert rep.stable
    assert rep.margin < 0
    assert rep.kg_lower_bound == pytest.approx(KG_BOUND_REF, rel=1e-12)


def test_stability_report_json(ref_model, fb4):
    rep = ea.stability_report(ref_model, fb4)
    d = json.loads(rep.to_json())
    assert d["stable"] is True
    a, b, c = rep.a, rep.b, rep.c
    assert d["minors"] == [a, a * b - c, c * (a * b - c)]
    assert len(d["poles"]) == 3


def _random_model(rng):
    rc = 411.6
    return ea.DriverModel(
        rss=rc * rng.uniform(0.1, 5.0),
        omega0=2 * math.pi * rng.uniform(50.0, 800.0),
        qms=rng.uniform(0.5, 20.0),
        pressure_factor=rng.uniform(100.0, 5000.0),
        csb=rng.uniform(1e-7, 1e-5),
    )


def test_stability_theorem_random_draws():
    """Nonnegative feedback gain never destabilizes the loop, and the
    Hurwitz verdict agrees with the numeric root locations."""
    rng = np.random.default_rng(42)
    for _ in range(2000):
        model = _random_model(rng)
        fb = ea.FeedbackSpec(rng.uniform(0.0, 100.0), 2 * math.pi * rng.uniform(50.0, 5000.0))
        rep = ea.stability_report(model, fb)
        assert rep.stable
        assert rep.margin < 0.0


def test_kg_bound_brackets_hurwitz_boundary():
    rng = np.random.default_rng(7)
    rc = 411.6
    for _ in range(100):
        model = _random_model(rng)
        wg = 2 * math.pi * rng.uniform(50.0, 5000.0)
        bound = ea.stability_report(model, ea.FeedbackSpec(0.0, wg)).kg_lower_bound
        eps = 1e-6 * abs(bound)

        def hurwitz(kg):
            w0, q = model.omega0, model.qms
            a = w0 / q + wg
            b = w0**2 + (w0 * wg / q) * (rc * kg / model.rss + 1.0)
            c = w0**2 * wg
            return ea.StabilityReport(a, b, c, bound).stable

        assert bound < 0.0
        assert hurwitz(bound + eps)
        assert not hurwitz(bound - eps)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(min_value=-10.0, max_value=10.0),
    b=st.floats(min_value=-10.0, max_value=10.0),
    c=st.floats(min_value=-10.0, max_value=10.0),
)
def test_property_hurwitz_equals_root_test(a, b, c):
    roots = np.roots([1.0, a, b, c])
    margin = float(np.max(roots.real))
    if abs(margin) < 1e-9:
        return  # too close to the boundary for either test to be meaningful
    assert ea.StabilityReport(a, b, c, kg_lower_bound=0.0).stable == (margin < 0.0)


def test_validation_errors():
    with pytest.raises(ea.InvalidParameterError):
        ea.Resonator(-1.0, 100.0, 1.0)
    with pytest.raises(ea.InvalidParameterError):
        ea.TargetSpec(())
    with pytest.raises(ea.InvalidParameterError):
        ea.FeedbackSpec(-0.1, 100.0)
