"""Checks that hold across modules: every public function that takes a
frequency refuses one that is not positive and finite, every one that takes
a seed and a spread refuses a bad one of either, every physical parameter
refuses a bool or a value that is not a real number, and the frozen value
types keep read-only copies of the arrays they are built from."""

import math

import numpy as np
import pytest

import eabsorb as ea

FS = 50_000.0


@pytest.fixture(scope="module")
def cascades(ref_model, targets, fb4):
    pair = ea.synthesize_controller(ref_model, targets["1dof"], fb4)
    return ea.bilinear_discretize(pair.h1, FS), ea.bilinear_discretize(pair.h2, FS)


#: name -> call(f, model, target, fb, cascades) passing the frequency f
#: (Hz, or rad/s for the `omega` arguments) next to a valid one where the
#: argument is an array
FREQUENCY_TAKERS = {
    "measure_impedance": lambda f, m, tg, fb, cas: ea.measure_impedance(
        m, cas, ea.LoopConfig(fs=FS, latency=0), [100.0, f]
    ),
    "closed_loop_sim": lambda f, m, tg, fb, cas: ea.closed_loop_sim(
        m, cas, ea.LoopConfig(fs=FS, latency=0), f
    ),
    "MonteCarloConfig": lambda f, m, tg, fb, cas: ea.MonteCarloConfig(
        10, 0.05, 1, freqs_hz=[100.0, f]
    ),
    "achieved_impedance": lambda f, m, tg, fb, cas: ea.achieved_impedance(
        m, m, tg, fb, [628.0, f]
    ),
    "sensitivities": lambda f, m, tg, fb, cas: ea.sensitivities(m, m, tg, fb, [628.0, f]),
    "passive_spectrum": lambda f, m, tg, fb, cas: ea.passive_spectrum(m, [100.0, 150.0, f]),
    "probe_front_spectrum": lambda f, m, tg, fb, cas: ea.probe_front_spectrum(
        m, ea.default_probe_gains(m)[0], [100.0, 150.0, f]
    ),
    "probe_rear_spectrum": lambda f, m, tg, fb, cas: ea.probe_rear_spectrum(
        m, ea.default_probe_gains(m)[1], [100.0, 150.0, f]
    ),
    "simulate_two_mic": lambda f, m, tg, fb, cas: ea.simulate_two_mic(
        [100.0, f], [400.0 + 0j, 400.0 + 0j], ea.REFERENCE_GEOMETRY, m.air
    ),
    "conditioning_report": lambda f, m, tg, fb, cas: ea.conditioning_report(
        ea.REFERENCE_GEOMETRY, m.air, [100.0, f]
    ),
}


@pytest.mark.parametrize("f", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(FREQUENCY_TAKERS))
def test_bad_frequency_is_refused_before_use(ref_model, targets, fb4, cascades, name, f):
    # under the suite's error::RuntimeWarning filter, evaluating anything at
    # the bad frequency before the check would fail with a warning instead
    with pytest.raises(ea.InvalidParameterError, match="must be positive and finite"):
        FREQUENCY_TAKERS[name](f, ref_model, targets["1dof"], fb4, cascades)


@pytest.mark.parametrize(
    "build, fields",
    [
        (lambda f, z: ea.MonteCarloConfig(10, 0.05, 1, freqs_hz=f), ("freqs_hz",)),
        (lambda f, z: ea.TwoMicMeasurement(f, z), ("freqs_hz", "h12")),
        (lambda f, z: ea.MeasuredSpectrum(f, z), ("omega", "z")),
    ],
    ids=["MonteCarloConfig", "TwoMicMeasurement", "MeasuredSpectrum"],
)
def test_value_types_keep_read_only_copies(build, fields):
    f = np.array([100.0, 200.0, 300.0])
    z = np.array([400.0 + 10j, 410.0 + 0j, 420.0 - 10j])
    value = build(f, z)
    stored = {name: getattr(value, name).copy() for name in fields}
    # writing to the caller's arrays after construction gets past no check
    f[0], z[0] = -5.0, math.nan
    for name in fields:
        np.testing.assert_array_equal(getattr(value, name), stored[name])
        with pytest.raises(ValueError, match="read-only"):
            getattr(value, name)[0] = -5.0


@pytest.mark.parametrize(
    "rel_std",
    [math.nan, math.inf, -0.05, "0.1", None, True],
    ids=["nan", "inf", "negative", "str", "none", "bool"],
)
def test_bad_rel_std_is_refused(rel_std):
    # NaN and inf would give NaN and inf factors, a negative spread flipped
    # normals, a string or None an untyped TypeError, and a bool a spread of 1
    with pytest.raises(ea.InvalidParameterError, match="rel_std"):
        ea.analysis.draw_parameter_factors(1, 0, rel_std)
    with pytest.raises(ea.InvalidParameterError, match="rel_std"):
        ea.MonteCarloConfig(10, rel_std, 1)


#: name -> call(seed, rel_std) of each public function taking both
RANDOM_TAKERS = {
    "draw_parameter_factors": lambda seed, rel_std: ea.analysis.draw_parameter_factors(
        seed, 0, rel_std
    ),
    "MonteCarloConfig": lambda seed, rel_std: ea.MonteCarloConfig(10, rel_std, seed),
    "add_measurement_noise": lambda seed, rel_std: ea.add_measurement_noise(
        ea.TwoMicMeasurement([100.0, 200.0], [0.5 + 0.1j, 0.4 - 0.2j]), rel_std, seed
    ),
}


@pytest.mark.parametrize(
    "seed, rel_std, match",
    [(1, True, "rel_std"), (1, -0.1, "rel_std"), (-1, 0.05, "seed"), (1.5, 0.05, "seed")],
    ids=["bool-rel-std", "negative-rel-std", "negative-seed", "float-seed"],
)
@pytest.mark.parametrize("name", sorted(RANDOM_TAKERS))
def test_bad_seed_or_rel_std_is_refused(name, seed, rel_std, match):
    # numpy would take a bool spread as 1.0 and refuse the rest with an
    # untyped ValueError or TypeError of its own
    with pytest.raises(ea.InvalidParameterError, match=match):
        RANDOM_TAKERS[name](seed, rel_std)


def test_rel_std_limits():
    # the public draw takes any finite spread, the study's config below 0.2
    assert np.all(ea.analysis.draw_parameter_factors(1, 0, 0.5) > 0.0)
    with pytest.raises(ea.InvalidParameterError, match=r"rel_std must be in \[0, 0.2\), got 0.2"):
        ea.MonteCarloConfig(10, 0.2, 1)


#: name -> (call(value, model, cascades) passing `value` as one physical
#: parameter, the start of the message that refuses a bad one)
PARAMETER_TAKERS = {
    "DriverModel.rss": (lambda x, m, cas: ea.DriverModel(x, 1.0, 1.0, 1.0, 1.0), "rss must be"),
    "Resonator.qt": (lambda x, m, cas: ea.Resonator(1.0, 1.0, x), "qt must be"),
    "FeedbackSpec.kg": (lambda x, m, cas: ea.FeedbackSpec(x, 1.0), "kg must be"),
    "LoopConfig.fs": (lambda x, m, cas: ea.LoopConfig(fs=x), "fs must be"),
    "LoopConfig.duration": (
        lambda x, m, cas: ea.LoopConfig(duration=x, transient=0.0),
        "duration must be",
    ),
    "LoopConfig.transient": (
        lambda x, m, cas: ea.LoopConfig(duration=2.0, transient=x),
        "transient must be",
    ),
    "ProbeGain.k": (lambda x, m, cas: ea.ProbeGain(x), "probe gain must be"),
    "closed_loop_sim.amplitude": (
        lambda x, m, cas: ea.closed_loop_sim(
            m, cas, ea.LoopConfig(fs=FS, duration=0.01, transient=0.005), 400.0, x
        ),
        "amplitude must be",
    ),
}


@pytest.mark.parametrize(
    "value", [True, np.True_, "5e4", None, 1j], ids=["bool", "numpy-bool", "str", "none", "complex"]
)
@pytest.mark.parametrize("name", sorted(PARAMETER_TAKERS))
def test_non_real_parameter_is_refused(ref_model, cascades, name, value):
    # a bool would be taken as 1 or 0, and a string, None or a complex would
    # raise an untyped TypeError from the comparison
    call, match = PARAMETER_TAKERS[name]
    with pytest.raises(ea.InvalidParameterError, match=match):
        call(value, ref_model, cascades)


@pytest.mark.parametrize("name", sorted(PARAMETER_TAKERS))
def test_numpy_real_parameter_is_taken(ref_model, cascades, name):
    call, _ = PARAMETER_TAKERS[name]
    for value in (np.float64(0.25), np.int64(1)):
        call(value, ref_model, cascades)
