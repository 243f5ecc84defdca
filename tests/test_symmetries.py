"""Exact symmetries of the design chain, as oracles that need no reference
values: rescaling every impedance, and rescaling the excitation amplitude.

Impedance scale mu: rss, every rst, rho0 (so rho0*c0) and the pressure
factor times mu, and Csb divided by mu.  Every impedance then scales by mu,
and every absorption coefficient is unchanged.

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
    omega = 2.0 * np.pi * ea.default_frequency_grid()
    base, base_target = impedance_scaled(name, 1.0)
    model, target = impedance_scaled(name, mu)
    for errors in ({}, {"pressure_factor": 0.95}):
        z1 = ea.achieved_impedance(base, base.scaled(**errors), base_target, FEEDBACK, omega)
        z = ea.achieved_impedance(model, model.scaled(**errors), target, FEEDBACK, omega)
        assert np.max(np.abs(z / mu - z1) / np.abs(z1)) < 2.3e-14
        alpha = ea.absorption_coefficient(z, model.air)
        alpha1 = ea.absorption_coefficient(z1, base.air)
        np.testing.assert_allclose(alpha, alpha1, rtol=0, atol=1.2e-14)
    config = ea.MonteCarloConfig(2000, 0.05, 3)
    band1 = ea.monte_carlo_absorption(base, base_target, FEEDBACK, config)
    band = ea.monte_carlo_absorption(model, target, FEEDBACK, config)
    for got, want in ((band.q1, band1.q1), (band.q3, band1.q3), (band.nominal, band1.nominal)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1.2e-14)


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
