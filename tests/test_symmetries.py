"""Exact symmetries of the design chain, as oracles that need no reference
values: rescaling every impedance, rescaling time, and rescaling the
excitation amplitude.

Impedance scale mu: rss, every rst, rho0 (so rho0*c0) and the pressure
factor times mu, and Csb divided by mu.  Every impedance then scales by mu,
and every absorption coefficient and sensitivity is unchanged.

Time scale lam: omega0, every resonance and the feedback cut-off fg times
lam, and Csb divided by lam.  Every impedance and sensitivity at lam*f is
then the unscaled one at f, and so is the Monte Carlo band.

Amplitude a: the loop is linear, so `closed_loop_sim` at amplitude a gives
a times the series at amplitude 1, and the same fitted impedance.
"""

import numpy as np
import pytest

import eabsorb as ea

#: the three reference targets: (rst / rho0c0, f_hz, q) per resonator
TARGETS = {
    "1dof": [(1.0, 400.0, 7.0)],
    "broadband": [(1.0, 200.0, 0.25)],
    "2dof": [(1.0, 100.0, 7.0), (1.0, 400.0, 7.0)],
}
FEEDBACK = ea.FeedbackSpec.from_hz(4.0, 500.0)
#: estimate errors of every parameter at once
ESTIMATE_FACTORS = {"rss": 1.03, "omega0": 0.98, "qms": 1.05, "pressure_factor": 0.95, "csb": 1.04}


def impedance_scaled(name: str, mu: float) -> tuple[ea.DriverModel, ea.TargetSpec]:
    """The reference model and the target `name`, every impedance times mu."""
    m = ea.table_reference_model()
    air = ea.AirProperties(m.air.rho0 * mu, m.air.c0)
    model = ea.DriverModel(m.rss * mu, m.omega0, m.qms, m.pressure_factor * mu, m.csb / mu, air)
    rc = air.characteristic_impedance
    return model, ea.TargetSpec.multi([(r * rc, f_hz, q) for r, f_hz, q in TARGETS[name]])


@pytest.mark.parametrize("mu", [0.5, 3.0, 100.0])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_impedance_scale(name, mu):
    f = ea.default_frequency_grid()
    base, base_target = impedance_scaled(name, 1.0)
    model, target = impedance_scaled(name, mu)
    for errors in ({}, {"pressure_factor": 0.95}):
        z1 = ea.achieved_impedance(base, base.scaled(**errors), base_target, FEEDBACK, f)
        z = ea.achieved_impedance(model, model.scaled(**errors), target, FEEDBACK, f)
        assert np.max(np.abs(z / mu - z1) / np.abs(z1)) < 2.3e-14
        # ten times the largest relative error measured, 5.0e-15
        s1 = ea.sensitivities(base, base.scaled(**errors), base_target, FEEDBACK, f)
        s = ea.sensitivities(model, model.scaled(**errors), target, FEEDBACK, f)
        for got, want in zip(sensitivity_arrays(s), sensitivity_arrays(s1)):
            assert np.all(np.abs(got - want) <= 5.0e-14 * np.abs(want))
        alpha = ea.absorption_coefficient(z, model.air)
        alpha1 = ea.absorption_coefficient(z1, base.air)
        np.testing.assert_allclose(alpha, alpha1, rtol=0, atol=1.2e-14)
    config = ea.MonteCarloConfig(2000, 0.05, 3)
    band1 = ea.monte_carlo_absorption(base, base_target, FEEDBACK, config)
    band = ea.monte_carlo_absorption(model, target, FEEDBACK, config)
    for got, want in ((band.q1, band1.q1), (band.q3, band1.q3), (band.nominal, band1.nominal)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1.2e-14)


def time_scaled(name: str, lam: float, kg: float):
    """The reference model, the target `name` and the feedback of gain kg,
    every frequency times lam."""
    m = ea.table_reference_model()
    rc = m.air.characteristic_impedance
    target = ea.TargetSpec.multi([(r * rc, f_hz * lam, q) for r, f_hz, q in TARGETS[name]])
    return m.scaled(omega0=lam, csb=1.0 / lam), target, ea.FeedbackSpec.from_hz(kg, 500.0 * lam)


def sensitivity_arrays(tri: ea.SensitivityTriple):
    return tri.s_zss, tri.s_f, tri.s_csb


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
@pytest.mark.parametrize("name", sorted(TARGETS))
def test_time_scale(name, lam):
    # each bound is ten times the largest error measured over the three
    # targets, both gains and both error sets: relative 9.9e-15 for Z_sa and
    # 1.0e-14 for the sensitivities, absolute 1.7e-15 for the band
    f = ea.default_frequency_grid()
    for kg in (0.0, 4.0):
        base, base_target, base_fb = time_scaled(name, 1.0, kg)
        model, target, fb = time_scaled(name, lam, kg)
        for errors in ({}, ESTIMATE_FACTORS):
            args1 = (base, base.scaled(**errors), base_target, base_fb, f)
            args = (model, model.scaled(**errors), target, fb, lam * f)
            z1, z = ea.achieved_impedance(*args1), ea.achieved_impedance(*args)
            assert np.all(np.abs(z - z1) <= 9.9e-14 * np.abs(z1))
            # at kg 0 s_csb is 0 in both, which the relative bound takes
            pairs = zip(sensitivity_arrays(ea.sensitivities(*args)),
                        sensitivity_arrays(ea.sensitivities(*args1)))
            for got, want in pairs:
                assert np.all(np.abs(got - want) <= 1.0e-13 * np.abs(want))
        config1 = ea.MonteCarloConfig(2000, 0.05, 3, freqs_hz=f)
        config = ea.MonteCarloConfig(2000, 0.05, 3, freqs_hz=lam * f)
        band1 = ea.monte_carlo_absorption(base, base_target, base_fb, config1)
        band = ea.monte_carlo_absorption(model, target, fb, config)
        for got, want in ((band.q1, band1.q1), (band.q3, band1.q3), (band.nominal, band1.nominal)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1.7e-14)


@pytest.mark.parametrize("amplitude", [1e-3, 3.0, 1e4])
@pytest.mark.parametrize("fs, hold", [(50_000.0, "centered"), (8_000.0, "causal")])
def test_amplitude_scale(fs, hold, amplitude):
    model, target = impedance_scaled("1dof", 1.0)
    pair = ea.synthesize_controller(model, target, FEEDBACK)
    cascades = tuple(ea.bilinear_discretize(h, fs) for h in (pair.h1, pair.h2))
    loop = ea.LoopConfig(fs=fs, latency=1, hold=hold)
    unit = ea.closed_loop_sim(model, cascades, loop, 400.0)
    scaled = ea.closed_loop_sim(model, cascades, loop, 400.0, amplitude)
    for signal in ("pf", "pb", "v", "i"):
        want = getattr(unit, signal)
        error = np.max(np.abs(getattr(scaled, signal) / amplitude - want))
        assert error < 1.0e-13 * np.max(np.abs(want)), signal
    z1 = unit.measured_impedance()
    assert abs(scaled.measured_impedance() - z1) < 1.2e-14 * abs(z1)
