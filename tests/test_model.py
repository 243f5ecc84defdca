import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import eabsorb as ea

# frozen oracle values, computed independently at 40-digit precision
ZSS_100HZ = 277.17144 - 2376.1286646711416j
ZSS_400HZ = 277.17144 + 2170.6012116424336j
MSS_REF = 1.1733468477742394
KSC_REF = 1956184.4398948751


def test_air_defaults():
    air = ea.AirProperties()
    assert air.rho0 == 1.2
    assert air.c0 == 343.0
    assert air.characteristic_impedance == pytest.approx(411.6)


def test_air_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.AirProperties(rho0=-1.0)


def test_reference_model_values(ref_model, rc):
    assert ref_model.rss == pytest.approx(0.6734 * rc)
    assert ref_model.f0_hz == pytest.approx(205.5)
    assert ref_model.qms == pytest.approx(5.466)
    assert ref_model.pressure_factor == pytest.approx(1084.0)  # 1.084 Pa/mA
    assert ref_model.csb == pytest.approx(1.808e-6)


def test_derived_mass_and_stiffness(ref_model):
    assert ref_model.mss == pytest.approx(MSS_REF, rel=1e-12)
    assert ref_model.ksc == pytest.approx(KSC_REF, rel=1e-12)
    # resonance consistency: ksc/mss = omega0^2
    assert ref_model.ksc / ref_model.mss == pytest.approx(ref_model.omega0**2, rel=1e-12)


def test_passive_impedance_oracles(ref_model):
    zss = ea.passive_impedance(ref_model)
    assert complex(zss(2j * np.pi * 100.0)) == pytest.approx(ZSS_100HZ, rel=1e-12)
    assert complex(zss(2j * np.pi * 400.0)) == pytest.approx(ZSS_400HZ, rel=1e-12)
    # purely resistive at resonance
    at_res = complex(zss(1j * ref_model.omega0))
    assert at_res.imag == pytest.approx(0.0, abs=1e-6 * abs(at_res.real))
    assert at_res.real == pytest.approx(ref_model.rss, rel=1e-12)


def test_model_json_round_trip(ref_model):
    clone = ea.DriverModel.from_dict(json.loads(json.dumps(ref_model.to_dict())))
    assert clone == ref_model


@pytest.mark.parametrize("bad", [True, "12.5"], ids=["bool", "numeric-str"])
@pytest.mark.parametrize(
    "key, name",
    [
        ("rss", "rss"), ("f0_hz", "f0_hz"), ("qms", "qms"), ("f_pa_per_a", "pressure_factor"),
        ("csb_m_per_pa", "csb"), ("rho0", "rho0"), ("c0", "c0"),
    ],
)
def test_model_from_dict_refuses_what_the_checks_refuse(ref_model, key, name, bad):
    # no value is converted before its check: a bool or a numeric string is
    # refused under the name of the parameter it would set
    d = ref_model.to_dict()
    d[key] = bad
    message = f"{name} must be a positive number, got {bad!r}"
    with pytest.raises(ea.InvalidParameterError, match=f"^{re.escape(message)}$"):
        ea.DriverModel.from_dict(d)


def test_scaled_keeps_each_parameter_it_is_not_given(ref_model):
    names = ("rss", "omega0", "qms", "pressure_factor", "csb")
    for name in names:
        est = ref_model.scaled(**{name: 2.0})
        for other in names:
            factor = 2.0 if other == name else 1.0
            assert getattr(est, other) == factor * getattr(ref_model, other)
        assert est.air is ref_model.air


def test_model_validation():
    with pytest.raises(ea.InvalidParameterError):
        ea.DriverModel(rss=-1.0, omega0=1.0, qms=1.0, pressure_factor=1.0, csb=1e-6)


NON_FINITE_CASES = {
    "air": lambda x: ea.AirProperties(rho0=x),
    "raw": lambda x: ea.RawDriverParams(mms=0.01, cms=1e-3, rms=1.0, bl=5.0, sd=0.01, vb=x),
    "driver": lambda x: ea.DriverModel(rss=x, omega0=1.0, qms=1.0, pressure_factor=1.0, csb=1e-6),
    "current-source": lambda x: ea.CurrentSourceDesign(r1=1.0, r2=1.0, r3=1.0, r4=1.0, r5=x),
    "resonator": lambda x: ea.Resonator(411.6, x, 7.0),
    "feedback-kg": lambda x: ea.FeedbackSpec(x, 3000.0),
    "feedback-omega-g": lambda x: ea.FeedbackSpec(4.0, x),
    "geometry": lambda x: ea.WaveguideGeometry(delta_x=0.1, x1=0.4, length=x, diameter=0.07),
    "loop-duration": lambda x: ea.LoopConfig(duration=x),
    "spectrum-freq": lambda x: ea.MeasuredSpectrum(np.array([1.0, 2.0, x]), np.ones(3, complex)),
    "spectrum-z": lambda x: ea.MeasuredSpectrum(np.array([1.0, 2.0, 3.0]), np.array([1, x, 1j])),
    "two-mic-freq": lambda x: ea.TwoMicMeasurement(np.array([x]), np.ones(1, complex)),
    "two-mic-h12": lambda x: ea.TwoMicMeasurement(np.array([100.0]), np.array([x + 0j])),
    "probe-gain": ea.ProbeGain,
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", list(NON_FINITE_CASES))
def test_non_finite_values_are_rejected(case, value):
    # NaN fails every comparison, so each check must test finiteness itself
    with pytest.raises(ea.InvalidParameterError):
        NON_FINITE_CASES[case](value)


def test_raw_conversion_consistency():
    raw = ea.RawDriverParams(
        mms=8.9e-3, cms=1.1e-3, rms=0.8, bl=3.4, sd=79e-4, vb=4.2e-3
    )
    model = ea.derive_specific_model(raw)
    air = model.air
    assert model.csb == pytest.approx(raw.vb / (air.rho0 * air.c0**2 * raw.sd))
    assert model.rss == pytest.approx(raw.rms / raw.sd)
    assert model.pressure_factor == pytest.approx(raw.bl / raw.sd)
    # the box's air spring rho0*c0^2*Sd^2/Vb stiffens the suspension 1/Cms
    k = 1.0 / raw.cms + air.rho0 * air.c0**2 * raw.sd**2 / raw.vb
    assert model.omega0 == pytest.approx(math.sqrt(k / raw.mms), rel=1e-12)
    assert model.qms == pytest.approx(math.sqrt(raw.mms * k) / raw.rms, rel=1e-12)
    # resonance above the free-air value (box stiffens the suspension)
    f_free = 1.0 / (2 * math.pi * math.sqrt(raw.mms * raw.cms))
    assert model.f0_hz > f_free


def test_raw_scale_consistency():
    # doubling the cross-section (and co-scaling the extensive parameters,
    # compliance inversely) leaves the specific model unchanged
    raw = ea.RawDriverParams(
        mms=8.9e-3, cms=1.1e-3, rms=0.8, bl=3.4, sd=79e-4, vb=4.2e-3
    )
    gamma = 2.0
    scaled = ea.RawDriverParams(
        mms=raw.mms * gamma,
        cms=raw.cms / gamma,
        rms=raw.rms * gamma,
        bl=raw.bl * gamma,
        sd=raw.sd * gamma,
        vb=raw.vb * gamma,
    )
    a = ea.derive_specific_model(raw)
    b = ea.derive_specific_model(scaled)
    for name in ("rss", "omega0", "qms", "pressure_factor", "csb"):
        assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-12)


# -- current source -----------------------------------------------------------


def test_current_source_reference_values():
    # independent 40-digit evaluation of the resistor network
    design = ea.CurrentSourceDesign(r1=92e3, r2=92e3, r3=1.1e3, r4=1.1e3, r5=1.2)
    tc, leak = ea.current_source_gains(design)
    assert tc == pytest.approx(0.0099745092545027164, rel=1e-12)
    assert leak == pytest.approx(-1.0741138560687433e-5, rel=1e-12)


def test_current_source_leakage_zero_exact():
    d = ea.CurrentSourceDesign(r1=50e3, r2=50e3, r3=1000.0, r4=990.0, r5=10.0)
    _, leak = ea.current_source_gains(d)
    assert leak == 0.0


resistor = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)


@given(r1=resistor, r4=resistor, r5=resistor)
def test_property_leakage_zero_under_simplification(r1, r4, r5):
    design = ea.CurrentSourceDesign(r1=r1, r2=r1, r3=r4 + r5, r4=r4, r5=r5)
    _, leak = ea.current_source_gains(design)
    assert leak == 0.0


def test_driver_fixture_file(ref_model):
    from conftest import FIXTURES

    text = (FIXTURES / "table3_driver.json").read_text()
    assert ea.DriverModel.from_dict(json.loads(text)) == ref_model
    # and the fixture regenerates byte-identically from the model
    assert json.loads(text) == ref_model.to_dict()
