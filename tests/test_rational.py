import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eabsorb.rational import RationalTransfer


def test_constant_and_zero():
    g = RationalTransfer.constant(2.5)
    assert g(1j * 100.0) == 2.5
    z = RationalTransfer.constant(0.0)
    assert z.is_zero
    assert z(1j * 10.0) == 0.0


def test_differentiator():
    d = RationalTransfer.differentiator(3.0)
    s = 1j * 7.0
    assert d(s) == pytest.approx(3.0 * s)


def test_den_normalization():
    r = RationalTransfer.from_coeffs([2.0, 4.0], [2.0, 8.0])
    assert r.den[0] == 1.0
    np.testing.assert_allclose(r.num, [1.0, 2.0])
    np.testing.assert_allclose(r.den, [1.0, 4.0])


def test_exact_zero_leading_trim_only():
    # a genuinely small (but nonzero) leading coefficient must survive even
    # when other coefficients are twelve orders of magnitude larger
    r = RationalTransfer.from_coeffs([1.0], [1.0, 1e12, 2.5e12])
    assert r.den_degree == 2
    r2 = RationalTransfer.from_coeffs([0.0, 1.0], [0.0, 1.0, 3.0])
    assert r2.num_degree == 0 and r2.den_degree == 1


def test_cancel_origin_roots_down_to_a_constant_and_within_tolerance():
    # common roots at s = 0 go down to a constant numerator or denominator;
    # a coefficient at most COEFF_TOL of its polynomial's largest counts as 0
    for num, den, want in (
        ([2.0, 0.0], [1.0, 3.0, 0.0], ([2.0], [1.0, 3.0])),
        ([1.0, 3.0, 0.0], [2.0, 0.0], ([0.5, 1.5], [1.0])),
        ([1e6, 1e-7], [1.0, 1e-13], ([1e6], [1.0])),
        ([1.0, 2.0, 1e-13], [1.0, 1e6, 1e-7], ([1.0, 2.0], [1.0, 1e6])),
        ([0.0], [1.0, 0.0], ([0.0], [1.0, 0.0])),
        ([1.0, 1e-12], [1.0, 1e-12], ([1.0], [1.0])),  # at the tolerance
    ):
        r = RationalTransfer.from_coeffs(num, den).cancel_origin_roots()
        assert (r.num.tolist(), r.den.tolist()) == want


def test_arithmetic_matches_pointwise():
    a = RationalTransfer.from_coeffs([1.0, 2.0], [1.0, 3.0, 5.0])
    b = RationalTransfer.from_coeffs([4.0], [1.0, 7.0])
    s = 1j * np.linspace(1.0, 1000.0, 37)
    np.testing.assert_allclose((a + b)(s), a(s) + b(s), rtol=1e-12)
    np.testing.assert_allclose((a - b)(s), a(s) - b(s), rtol=1e-12)
    np.testing.assert_allclose((a * b)(s), a(s) * b(s), rtol=1e-12)
    np.testing.assert_allclose((a / b)(s), a(s) / b(s), rtol=1e-12)
    np.testing.assert_allclose((1.0 - a)(s), 1.0 - a(s), rtol=1e-12)
    np.testing.assert_allclose((2.0 / b)(s), 2.0 / b(s), rtol=1e-12)
    np.testing.assert_allclose((-a)(s), -a(s), rtol=1e-12)
    np.testing.assert_allclose(a.inverse()(s), 1.0 / a(s), rtol=1e-12)


def test_properness_and_degrees():
    r = RationalTransfer.from_coeffs([1.0, 0.0, 0.0], [2.0, 1.0])
    assert r.num_degree == 2 and r.den_degree == 1
    assert not r.is_proper
    assert RationalTransfer.from_coeffs([1.0], [1.0, 1.0]).is_proper


def test_cancel_origin_roots():
    # s*(s+2) / (s*(s+3)) -> (s+2)/(s+3)
    r = RationalTransfer.from_coeffs([1.0, 2.0, 0.0], [1.0, 3.0, 0.0])
    c = r.cancel_origin_roots()
    assert c.num_degree == 1 and c.den_degree == 1
    s = 1j * np.linspace(0.5, 100.0, 11)
    np.testing.assert_allclose(c(s), r(s), rtol=1e-12)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalTransfer.from_coeffs([1.0], [0.0])


def test_overflowing_normalization_rejected():
    # 4 / 2.2e-308 exceeds the float64 range
    with pytest.raises(OverflowError):
        RationalTransfer.from_coeffs([4.0], [2.2250738585072014e-308])
    # so do the monic coefficients of a product of wide-range denominators
    a = RationalTransfer.from_coeffs([1.0], [1e-200, 1.0])
    with pytest.raises(OverflowError):
        a * a


def test_wide_range_product_evaluates():
    # den of a*a is s^4 + 6.7e151 s^3 + 1.1e303 s^2: plain Horner overflows
    # to inf at 407 rad/s and returns 0 for a ~1.9e-9 value
    a = RationalTransfer.from_coeffs([1.0], [1.7e-150, 57.0, 0.0])
    s = 1j * np.array([3.7, 91.2, 407.0])
    np.testing.assert_allclose((a * a)(s), a(s) ** 2, rtol=1e-12)


def test_evaluation_matches_plain_horner_in_range():
    # power-of-two scaling is exact: bit for bit np.polyval where it fits
    rng = np.random.default_rng(5)
    s = np.concatenate([1j * np.geomspace(1e-2, 1e6, 41), rng.normal(size=9) * 300.0 + 1j])
    for _ in range(200):
        num = rng.normal(size=rng.integers(1, 7)) * 10.0 ** rng.uniform(-6, 6)
        den = rng.normal(size=rng.integers(1, 7)) * 10.0 ** rng.uniform(-6, 6)
        r = RationalTransfer.from_coeffs(num, den)
        want = np.polyval(r.num, s) / np.polyval(r.den, s)
        assert r(s).tobytes() == want.tobytes()
        assert r(0.25) == np.polyval(r.num, 0.25) / np.polyval(r.den, 0.25)


def test_value_beyond_float_range_is_inf():
    r = RationalTransfer.from_coeffs([1e300, 0.0, 0.0], [1.0])
    assert r(1e5j) == complex(-np.inf, 0.0)
    assert r(1e3j) == pytest.approx(-1e306)


coef = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@settings(max_examples=200)
@example(n1=[1.0], d1=[1.7e-150, 57.0, 0.0], n2=[1.0], d2=[1.7e-150, 57.0, 0.0])
@given(
    n1=st.lists(coef, min_size=1, max_size=3),
    d1=st.lists(coef, min_size=1, max_size=3),
    n2=st.lists(coef, min_size=1, max_size=3),
    d2=st.lists(coef, min_size=1, max_size=3),
)
def test_property_field_axioms(n1, d1, n2, d2):
    try:
        a = RationalTransfer.from_coeffs(n1, d1)
        b = RationalTransfer.from_coeffs(n2, d2)
    except (ZeroDivisionError, OverflowError):
        # a zero denominator, or one too small to make monic in float64
        return
    s = 1j * np.array([3.7, 91.2, 407.0])
    va, vb = a(s), b(s)
    if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
        return
    # pointwise sums and products beyond the float64 range are not compared
    with np.errstate(over="ignore", invalid="ignore"):
        want_sum, want_prod = va + vb, va * vb
    atol_sum = 1e-7 * np.maximum(np.abs(va) + np.abs(vb), 1.0)
    atol_prod = 1e-7 * (np.abs(want_prod) + 1.0)
    checks = ((operator.add, want_sum, atol_sum), (operator.mul, want_prod, atol_prod))
    for op, want, atol in checks:
        try:
            got = op(a, b)(s)
        except OverflowError:
            # the combined coefficients leave the float64 range
            continue
        keep = np.isfinite(got) & np.isfinite(want)
        if keep.any():
            np.testing.assert_allclose(got[keep], want[keep], rtol=1e-7, atol=atol[keep].max())
