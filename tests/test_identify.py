import numpy as np
import pytest

import eabsorb as ea


@pytest.fixture(scope="module")
def probes(ref_model):
    return ea.default_probe_gains(ref_model)


@pytest.fixture(scope="module")
def spectra(ref_model, probes):
    k1, k2 = probes
    return (
        ea.passive_spectrum(ref_model),
        ea.probe_front_spectrum(ref_model, k1),
        ea.probe_rear_spectrum(ref_model, k2),
    )


def test_passive_fit_recovers_parameters(ref_model, spectra):
    passive, _, _ = spectra
    fit = ea.fit_passive_params(passive)
    assert fit.rss == pytest.approx(ref_model.rss, rel=1e-9)
    assert fit.omega0 == pytest.approx(ref_model.omega0, rel=1e-9)
    assert fit.qms == pytest.approx(ref_model.qms, rel=1e-9)
    assert fit.mss == pytest.approx(ref_model.mss, rel=1e-9)
    assert fit.ksc == pytest.approx(ref_model.ksc, rel=1e-9)
    assert fit.residual < 1e-6


def test_force_factor_estimate(ref_model, spectra, probes):
    passive, front, _ = spectra
    k1, _ = probes
    est = ea.estimate_force_factor(passive, front, k1)
    assert est.value == pytest.approx(ref_model.pressure_factor, rel=1e-9)
    assert abs(est.imag_residual) < 1e-9 * est.value


def test_box_compliance_estimate(ref_model, spectra, probes):
    passive, _, rear = spectra
    _, k2 = probes
    est = ea.estimate_box_compliance(passive, rear, k2, ref_model.pressure_factor)
    assert est.value == pytest.approx(ref_model.csb, rel=1e-9)


def test_full_pipeline_round_trip(ref_model, spectra, probes):
    passive, front, rear = spectra
    k1, k2 = probes
    fitted, diag = ea.identify_model(passive, front, k1, rear, k2, ref_model.air)
    for name in ("rss", "omega0", "qms", "pressure_factor", "csb"):
        assert getattr(fitted, name) == pytest.approx(getattr(ref_model, name), rel=1e-6)
    assert diag["passive_fit_residual"] < 1e-6


def test_front_mic_gain_cancels_in_closed_loop(ref_model, probes, fb4, targets):
    """An uncalibrated front microphone biases F_hat but not the loop.

    With the same (scaled) front signal used for identification and for
    control, the achieved impedance still equals the target exactly.
    """
    k1, k2 = probes
    g1, g2 = 1.15, 0.92  # unknown microphone gain errors
    passive = ea.passive_spectrum(ref_model)
    front = ea.probe_front_spectrum(ref_model, k1, mic_gain=g1)
    rear = ea.probe_rear_spectrum(ref_model, k2, mic_gain=g2)
    fitted, _ = ea.identify_model(passive, front, k1, rear, k2, ref_model.air)
    # biased individual estimates...
    assert fitted.pressure_factor == pytest.approx(g1 * ref_model.pressure_factor, rel=1e-9)
    assert fitted.csb == pytest.approx(
        (g1 / g2) * ref_model.csb, rel=1e-9
    )
    # ...but exact closed-loop behavior: controller synthesized from the
    # biased model, driven by the same scaled microphone signals
    tg = targets["1dof"]
    pair = ea.synthesize_controller(fitted, tg, fb4)
    om = 2.0 * np.pi * np.linspace(20.0, 900.0, 89)
    s = 1j * om
    zss = ea.passive_impedance(ref_model)(s)
    f_true = ref_model.pressure_factor
    # plant: Zss*v = pf - F*i, with i = H1*(g1*pf) + H2*(g2*pb)
    z_loop = (zss + g2 * f_true * pair.h2(s) / (s * ref_model.csb)) / (
        1.0 - g1 * f_true * pair.h1(s)
    )
    zst = ea.target_impedance(tg)(s)
    np.testing.assert_allclose(z_loop, zst, rtol=1e-9)


def test_spectrum_csv_round_trip(tmp_path, ref_model):
    air = ref_model.air
    spec = ea.passive_spectrum(ref_model)
    path = tmp_path / "passive.csv"
    spec.to_csv(path, air)
    clone = ea.MeasuredSpectrum.from_csv(path, air)
    np.testing.assert_allclose(clone.omega, spec.omega, rtol=1e-15)
    np.testing.assert_allclose(clone.z, spec.z, rtol=1e-12)
    header = path.read_text().splitlines()[0]
    assert header == "freq_hz,re_z_norm,im_z_norm"


def test_spectrum_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.MeasuredSpectrum(np.array([1.0, 2.0]), np.array([1.0 + 0j]))
    with pytest.raises(ea.InvalidParameterError):
        ea.MeasuredSpectrum(np.array([3.0, 2.0, 4.0]), np.ones(3, dtype=complex))


def test_probe_gain_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.ProbeGain(0.0)


def test_grid_mismatch_rejected(ref_model, probes):
    k1, _ = probes
    passive = ea.passive_spectrum(ref_model)
    other = ea.probe_front_spectrum(ref_model, k1, freqs_hz=np.arange(171.0, 250.0, 1.0))
    with pytest.raises(ea.IdentificationError):
        ea.estimate_force_factor(passive, other, k1)


def test_rank_deficiency_detected(ref_model):
    # a single-frequency band cannot separate mass from stiffness
    freqs = np.array([200.0, 200.0 + 1e-12, 200.0 + 2e-12])
    omega = 2.0 * np.pi * freqs
    z = ea.passive_impedance(ref_model)(1j * omega)
    with pytest.raises(ea.IdentificationError):
        ea.fit_passive_params(ea.MeasuredSpectrum(omega, z))


def test_unstable_front_probe_rejected(ref_model):
    hot = ea.ProbeGain(2.0 / ref_model.pressure_factor)
    with pytest.raises(ea.IdentificationError):
        ea.probe_front_spectrum(ref_model, hot)


def test_default_band():
    band = ea.identify.DEFAULT_BAND_HZ
    assert band[0] == 170.0
    assert band[-1] == 250.0
    assert np.all(np.diff(band) == 1.0)
