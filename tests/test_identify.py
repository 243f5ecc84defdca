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


def test_identification_recovers_parameters_below_one():
    # the physical checks are on the sign: parameters below 1 in SI units
    # are recovered, and a rear gain that takes half the stiffness is stable
    small = ea.DriverModel(rss=0.5, omega0=0.8, qms=0.9, pressure_factor=0.5, csb=0.5)
    freqs = np.linspace(0.05, 0.3, 26)
    k1, k2 = ea.default_probe_gains(small)
    fitted, _ = ea.identify_model(
        ea.passive_spectrum(small, freqs),
        ea.probe_front_spectrum(small, k1, freqs), k1,
        ea.probe_rear_spectrum(small, k2, freqs), k2,
        small.air,
    )
    for name in ("rss", "omega0", "qms", "pressure_factor", "csb"):
        assert getattr(fitted, name) == pytest.approx(getattr(small, name), rel=1e-9)
    half = ea.ProbeGain(-0.5 * small.ksc * small.csb / small.pressure_factor)
    rear = ea.probe_rear_spectrum(small, half, freqs)
    assert ea.fit_passive_params(rear).ksc == pytest.approx(0.5 * small.ksc, rel=1e-9)


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
    control, the achieved impedance still equals the target exactly.  A
    probe K reading a microphone of gain g applies the current K*g*p.
    """
    k1, k2 = probes
    g1, g2 = 1.15, 0.92  # unknown microphone gain errors
    passive = ea.passive_spectrum(ref_model)
    front = ea.probe_front_spectrum(ref_model, ea.ProbeGain(k1.k * g1))
    rear = ea.probe_rear_spectrum(ref_model, ea.ProbeGain(k2.k * g2))
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
    assert clone.freqs_hz.tobytes() == ea.identify.DEFAULT_BAND_HZ.tobytes()
    np.testing.assert_allclose(clone.z, spec.z, rtol=1e-12)
    header = path.read_text().splitlines()[0]
    assert header == "freq_hz,re_z_norm,im_z_norm"


def test_spectrum_csv_round_trip_keeps_random_frequencies(tmp_path, ref_model):
    # the spectrum holds the hertz it is given, and the CSV writes them back
    freqs = np.sort(np.random.default_rng(3).uniform(1.0, 2e4, 200))
    spec = ea.passive_spectrum(ref_model, freqs)
    spec.to_csv(tmp_path / "passive.csv", ref_model.air)
    clone = ea.MeasuredSpectrum.from_csv(tmp_path / "passive.csv", ref_model.air)
    assert spec.freqs_hz.tobytes() == clone.freqs_hz.tobytes() == freqs.tobytes()


def test_malformed_spectrum_csv_is_an_invalid_parameter(tmp_path, ref_model):
    # a short row, refused as the CLI refuses it, for a library caller too
    bad = tmp_path / "bad.csv"
    bad.write_text("freq_hz,re_z_norm,im_z_norm\n1.0,2.0\n")
    with pytest.raises(ea.InvalidParameterError, match=f"malformed spectrum CSV {bad}"):
        ea.MeasuredSpectrum.from_csv(bad, ref_model.air)


def test_spectrum_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.MeasuredSpectrum(np.array([1.0, 2.0]), np.array([1.0 + 0j]))
    for freqs in ([3.0, 2.0, 4.0], [2.0, 2.0, 4.0]):
        with pytest.raises(ea.InvalidParameterError, match="strictly increasing"):
            ea.MeasuredSpectrum(np.array(freqs), np.ones(3, dtype=complex))


def test_probe_gain_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.ProbeGain(0.0)


def test_grid_mismatch_rejected(ref_model, probes):
    k1, _ = probes
    passive = ea.passive_spectrum(ref_model)
    other = ea.probe_front_spectrum(ref_model, k1, freqs_hz=np.arange(171.0, 250.0, 1.0))
    with pytest.raises(ea.InvalidParameterError, match="same frequency grid"):
        ea.estimate_force_factor(passive, other, k1)


def test_rank_deficiency_detected(ref_model):
    # a single-frequency band cannot separate mass from stiffness; on the
    # 0.2 mHz band the smallest singular value, 1.1e-9, is below RANK_TOL
    # times the largest (2.2e-7) but not times the middle one (1.7e-10)
    for step in (1e-12, 1e-4):
        freqs = np.array([200.0, 200.0 + step, 200.0 + 2 * step])
        z = ea.passive_impedance(ref_model)(2j * np.pi * freqs)
        with pytest.raises(ea.IdentificationError, match="rank deficient"):
            ea.fit_passive_params(ea.MeasuredSpectrum(freqs, z))


def test_unstable_front_probe_rejected(ref_model):
    hot = ea.ProbeGain(2.0 / ref_model.pressure_factor)
    with pytest.raises(ea.IdentificationError):
        ea.probe_front_spectrum(ref_model, hot)


def _with_sample(spectrum, i, z):
    """`spectrum` with its impedance sample i replaced by z."""
    zs = spectrum.z.copy()
    zs[i] = z
    return ea.MeasuredSpectrum(spectrum.freqs_hz, zs)


def _passive_as(probe, scale):
    """identify_model on the passive spectrum times `scale` as its `probe`
    ("front" or "rear") probe spectrum, the other probe's spectrum as made."""

    def call(m, sp, pr):
        again = ea.MeasuredSpectrum(sp[0].freqs_hz, sp[0].z * scale)
        front, rear = (again, sp[2]) if probe == "front" else (sp[1], again)
        return ea.identify_model(sp[0], front, pr[0], rear, pr[1], m.air)

    return call


#: name -> (call(model, spectra, probes) on crafted spectra or gains, message)
REFUSALS = {
    # a lossless spectrum fits a resistance of exactly zero
    "lossless-fit": (
        lambda m, sp, pr: ea.fit_passive_params(
            ea.MeasuredSpectrum(sp[0].freqs_hz, 1j * sp[0].z.imag)
        ),
        "fit produced non-physical (non-positive) parameters",
    ),
    # a negative resistance is no driver
    "non-physical-fit": (
        lambda m, sp, pr: ea.fit_passive_params(
            ea.MeasuredSpectrum(sp[0].freqs_hz, -sp[0].z.conj())
        ),
        "fit produced non-physical (non-positive) parameters",
    ),
    "zero-probed-sample": (
        lambda m, sp, pr: ea.estimate_force_factor(sp[0], _with_sample(sp[1], 5, 0.0), pr[0]),
        "probed spectrum contains a zero impedance sample",
    ),
    "spectra-coincide": (
        lambda m, sp, pr: ea.estimate_box_compliance(
            sp[0], _with_sample(sp[2], 5, sp[0].z[5]), pr[1], m.pressure_factor
        ),
        "probed and passive spectra coincide at a sample",
    ),
    # at K1 = 1/F the front loop's residual gain 1 - F*K1 is exactly 0
    "front-probe-marginal": (
        lambda m, sp, pr: ea.probe_front_spectrum(m, ea.ProbeGain(1.0 / m.pressure_factor)),
        "front probe loop is unstable (F*K1 >= 1)",
    ),
    # a rear gain of -Ksc Csb / F takes exactly the suspension's stiffness
    "rear-probe-marginal": (
        lambda m, sp, pr: ea.probe_rear_spectrum(
            m, ea.ProbeGain(-m.ksc * m.csb / m.pressure_factor)
        ),
        "rear probe loop removes all stiffness (unstable)",
    ),
    # a rear gain of -2 Ksc Csb / F takes twice the suspension's stiffness
    "rear-probe-removes-stiffness": (
        lambda m, sp, pr: ea.probe_rear_spectrum(
            m, ea.ProbeGain(-2.0 * m.ksc * m.csb / m.pressure_factor)
        ),
        "rear probe loop removes all stiffness (unstable)",
    ),
    # a rear spectrum that only adds resistance gives Csb_hat = 0 exactly
    "zero-compliance-estimate": (
        lambda m, sp, pr: ea.identify_model(
            sp[0], sp[1], pr[0], ea.MeasuredSpectrum(sp[0].freqs_hz, sp[0].z + 1.0), pr[1], m.air
        ),
        "estimated parameters are non-positive",
    ),
    # a probe that changes the impedance by rounding only carries no
    # information: the passive spectrum passed again as the front probe gave
    # F_hat = 5.2e-14 and Csb_hat = 8.7e-23
    "front-probe-unchanged": (
        _passive_as("front", 1.0), "front probe does not change the impedance beyond rounding"
    ),
    "front-probe-rounding": (
        _passive_as("front", 1.0 + 1e-15),
        "front probe does not change the impedance beyond rounding",
    ),
    "rear-probe-unchanged": (
        _passive_as("rear", 1.0), "rear probe does not change the impedance beyond rounding"
    ),
    "rear-probe-rounding": (
        _passive_as("rear", 1.0 + 1e-15), "rear probe does not change the impedance beyond rounding"
    ),
    # the front spectrum read under the opposite gain gives F_hat = -F
    "non-positive-estimate": (
        lambda m, sp, pr: ea.identify_model(
            sp[0], sp[1], ea.ProbeGain(-pr[0].k), sp[2], pr[1], m.air
        ),
        "estimated parameters are non-positive",
    ),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_identification_refusals(ref_model, spectra, probes, name):
    call, message = REFUSALS[name]
    with pytest.raises(ea.IdentificationError) as exc:
        call(ref_model, spectra, probes)
    assert str(exc.value) == message


def test_default_band():
    band = ea.identify.DEFAULT_BAND_HZ
    assert band[0] == 170.0
    assert band[-1] == 250.0
    assert np.all(np.diff(band) == 1.0)


def test_default_probe_gains_move_the_impedance_as_documented(ref_model, spectra):
    # the front probe scales the impedance by 1.25 on the band; the rear
    # probe adds F*K2/(j*omega*Csb), a reactance of -0.7*Rss at resonance
    passive, front, _ = spectra
    assert np.max(np.abs(front.z / passive.z - 1.25)) <= 1e-12
    f0 = ref_model.f0_hz
    freqs = [0.5 * f0, f0, 2.0 * f0]
    rear = ea.probe_rear_spectrum(ref_model, ea.default_probe_gains(ref_model)[1], freqs)
    shift = (rear.z[1] - ea.passive_spectrum(ref_model, freqs).z[1]) / ref_model.rss
    assert abs(shift + 0.7j) <= 1e-12
