import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eabsorb as ea

AIR = ea.DEFAULT_AIR
GEOM = ea.REFERENCE_GEOMETRY

# frozen oracle: rigid termination at 300 Hz, cos(k*(x1+dx))/cos(k*x1)
H12_RIGID_300 = 1.4278737790030712


def test_reference_geometry():
    assert GEOM.delta_x == pytest.approx(0.100)
    assert GEOM.x1 == pytest.approx(0.420)
    assert GEOM.diameter == pytest.approx(0.072)
    assert GEOM.plane_wave_limit_hz(AIR) == pytest.approx(2791.9826627426, rel=1e-10)


def test_geometry_validation():
    for delta_x in (0.5, 0.4):  # the spacing must be below x1, not equal to it
        with pytest.raises(ea.InvalidParameterError, match="delta_x must be smaller than x1"):
            ea.WaveguideGeometry(delta_x=delta_x, x1=0.4, diameter=0.07)
    with pytest.raises(ea.InvalidParameterError):
        ea.WaveguideGeometry(delta_x=-0.1, x1=0.4, diameter=0.07)
    # a value that is not a positive number is refused as such first
    with pytest.raises(ea.InvalidParameterError, match="diameter must be a positive number"):
        ea.WaveguideGeometry(delta_x=0.1, x1=0.42, diameter=math.nan)


def test_measurement_sizes_must_match():
    with pytest.raises(ea.InvalidParameterError, match="frequency and H12 arrays must match"):
        ea.TwoMicMeasurement([100.0, 200.0], [0.5 + 0.1j])
    # one impedance per frequency: numpy broadcast a single one and raised a
    # bare "operands could not be broadcast" ValueError for the others
    for z in ([400.0 + 0j], [400.0 + 0j] * 3, [[400.0 + 0j, 410.0 + 0j]]):
        message = r"z_term must match freqs_hz's shape \(2,\), got"
        with pytest.raises(ea.InvalidParameterError, match=message):
            ea.simulate_two_mic([100.0, 200.0], z, GEOM, AIR)


def test_matched_termination_pure_delay():
    # no reflection: H12 is the pure propagation phase e^{-jk*dx}
    freqs = np.array([100.0, 300.0, 700.0])
    z = np.full(3, AIR.characteristic_impedance, dtype=complex)
    meas = ea.simulate_two_mic(freqs, z, GEOM, AIR)
    k = 2 * np.pi * freqs / AIR.c0
    np.testing.assert_allclose(meas.h12, np.exp(-1j * k * GEOM.delta_x), rtol=1e-12)


def test_rigid_termination_oracle():
    meas = ea.simulate_two_mic(np.array([300.0]), np.array([1e300 + 0j]), GEOM, AIR)
    assert complex(meas.h12[0]) == pytest.approx(H12_RIGID_300, rel=1e-10)


def test_cutoff_rejected():
    # above the plane-wave limit, and at it
    for f in (3000.0, GEOM.plane_wave_limit_hz(AIR)):
        with pytest.raises(ea.InvalidParameterError, match="plane-wave limit"):
            ea.simulate_two_mic(np.array([f]), np.array([400.0 + 0j]), GEOM, AIR)


@pytest.mark.parametrize("name", ["1dof", "broadband", "2dof"])
def test_round_trip_identity(targets, name):
    freqs = np.arange(10.0, 1000.0001, 2.0)
    z = ea.target_impedance(targets[name])(2j * np.pi * freqs)
    meas = ea.simulate_two_mic(freqs, z, GEOM, AIR)
    rec = ea.recover_reflection(meas, GEOM, AIR)
    ok = ~rec.singular
    assert ok.all()
    np.testing.assert_allclose(rec.z[ok], z[ok], rtol=1e-10)
    # reflection/absorption consistency
    gamma = ea.reflection_coefficient(z, AIR)
    np.testing.assert_allclose(rec.gamma, gamma, atol=1e-10)


def test_half_wave_spacing_flagged():
    # k*dx = pi at c0/(2*dx) = 1715 Hz
    f = AIR.c0 / (2.0 * GEOM.delta_x)
    z = np.array([500.0 + 100.0j])
    meas = ea.simulate_two_mic(np.array([f]), z, GEOM, AIR)
    rec = ea.recover_reflection(meas, GEOM, AIR)
    assert rec.singular[0]


@pytest.mark.parametrize(
    "offset_hz, flagged", [(1e-9, True), (1e-4, True), (7e-4, False), (1e-2, False)]
)
def test_near_half_wave_spacing_flagged(ref_model, offset_hz, flagged):
    # a hair off k*dx = pi the inversion's rounding error in alpha grows like
    # 1e-16 / |sin(k*dx)|: 8.8e-6 at +1e-9 Hz and 3.2e-10 at +1e-4 Hz, both
    # flagged; at +7e-4 Hz (|sin(k*dx)| 1.3e-6, just past SPACING_TOL) and
    # +1e-2 Hz it is below the 1e-9 alpha is checked to
    f = np.array([AIR.c0 / (2.0 * GEOM.delta_x) + offset_hz])
    z = ea.passive_impedance(ref_model)(2j * np.pi * f)
    rec = ea.recover_reflection(ea.simulate_two_mic(f, z, GEOM, AIR), GEOM, AIR)
    assert rec.singular[0] == flagged
    if not flagged:
        alpha = 1.0 - np.abs(rec.gamma) ** 2
        np.testing.assert_allclose(alpha, ea.absorption_coefficient(z, AIR), rtol=0, atol=1e-9)


def test_noise_determinism_and_effect():
    freqs = np.arange(20.0, 500.0, 10.0)
    z = np.full(freqs.size, 2.0 * AIR.characteristic_impedance, dtype=complex)
    meas = ea.simulate_two_mic(freqs, z, GEOM, AIR)
    n1 = ea.add_measurement_noise(meas, 1e-3, 77)
    n2 = ea.add_measurement_noise(meas, 1e-3, 77)
    n3 = ea.add_measurement_noise(meas, 1e-3, 78)
    np.testing.assert_array_equal(n1.h12, n2.h12)
    assert not np.array_equal(n1.h12, n3.h12)
    assert np.max(np.abs(n1.h12 / meas.h12 - 1.0)) < 0.02


def test_noise_is_relative_complex_gaussian():
    # H12 (1 + n), n = N(0, rel_std^2) + j N(0, rel_std^2), real parts first,
    # from numpy's default_rng(seed)
    freqs = np.arange(20.0, 500.0, 10.0)
    z = np.full(freqs.size, 2.0 * AIR.characteristic_impedance, dtype=complex)
    meas = ea.simulate_two_mic(freqs, z, GEOM, AIR)
    rng = np.random.default_rng(77)
    n = rng.normal(0.0, 1e-3, freqs.size) + 1j * rng.normal(0.0, 1e-3, freqs.size)
    noisy = ea.add_measurement_noise(meas, 1e-3, 77)
    assert noisy.h12.tobytes() == (meas.h12 * (1.0 + n)).tobytes()


def test_low_frequency_ill_conditioning(targets):
    """With identical relative noise, the recovered impedance degrades far
    more at 20 Hz than at 200 Hz."""
    freqs = np.array([20.0, 200.0])
    z = ea.target_impedance(targets["1dof"])(2j * np.pi * freqs)
    meas = ea.simulate_two_mic(freqs, z, GEOM, AIR)
    noisy = ea.add_measurement_noise(meas, 1e-3, 1234)
    rec = ea.recover_reflection(noisy, GEOM, AIR)
    rel = np.abs(rec.z - z) / np.abs(z)
    assert rel[0] > 5.0 * rel[1]


@settings(max_examples=100, deadline=None)
@given(
    re=st.floats(min_value=10.0, max_value=5e4),
    im=st.floats(min_value=-5e4, max_value=5e4),
    f=st.floats(min_value=15.0, max_value=1500.0),
)
def test_property_round_trip(re, im, f):
    z = np.array([complex(re, im)])
    freqs = np.array([f])
    meas = ea.simulate_two_mic(freqs, z, GEOM, AIR)
    rec = ea.recover_reflection(meas, GEOM, AIR)
    if rec.singular[0]:
        return
    np.testing.assert_allclose(rec.z, z, rtol=1e-8)
