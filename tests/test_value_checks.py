"""Checks that hold across modules: every public function that takes a
frequency refuses one that is not positive and finite, every one that takes
a seed and a spread refuses a bad one of either, every physical parameter
refuses a bool, a value that is not a real number or an integer beyond
float range, and the frozen value types keep read-only copies of the arrays
they are built from and Python floats of the numbers; those holding arrays
compare by identity."""

import copy
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
}


@pytest.mark.parametrize(
    "f",
    [0.0, math.nan, math.inf, 10**400, "100", "x", True, np.True_, 1 + 2j, None],
    ids=[
        "zero", "nan", "inf", "beyond-float", "numeric-str", "str", "bool", "numpy-bool",
        "complex", "none",
    ],
)
@pytest.mark.parametrize("name", sorted(FREQUENCY_TAKERS))
def test_bad_frequency_is_refused_before_use(ref_model, targets, fb4, cascades, name, f):
    # under the suite's error::RuntimeWarning filter, evaluating anything at
    # the bad frequency before the check would fail with a warning instead;
    # an integer beyond float range would raise a bare OverflowError, a
    # non-numeric string a bare ValueError and a complex a bare TypeError,
    # while numpy reads a numeric string as its number and a bool as 1 Hz
    with pytest.raises(ea.InvalidParameterError, match="must be positive and finite"):
        FREQUENCY_TAKERS[name](f, ref_model, targets["1dof"], fb4, cascades)


@pytest.mark.parametrize(
    "f",
    [100, np.int64(100), np.float32(100.0), [100, 200.0], np.array([100, 200], dtype=np.int32),
     np.array([[100.0], [200.0]], dtype=np.float32)],
    ids=["int", "numpy-int", "numpy-float32", "list", "int-array", "float32-array"],
)
def test_real_frequencies_are_taken(f):
    got = ea.errors.check_frequencies(f)
    assert got.dtype == np.float64 and got.shape == np.shape(f)
    np.testing.assert_array_equal(got, np.asarray(f, dtype=float))


#: name -> call(f, model, cascades) of each taker of one frequency
SINGLE_FREQUENCY_TAKERS = {
    "LoopConfig.time_grid": lambda f, m, cas: ea.LoopConfig().time_grid(f),
    "closed_loop_sim": lambda f, m, cas: ea.closed_loop_sim(
        m, cas, ea.LoopConfig(fs=FS, latency=0), f
    ),
}


@pytest.mark.parametrize(
    "f", [[100.0, 200.0], [205.5], np.array([205.5])], ids=["list", "one-item-list", "array"]
)
@pytest.mark.parametrize("name", sorted(SINGLE_FREQUENCY_TAKERS))
def test_frequency_array_is_refused_by_single_frequency_takers(ref_model, cascades, name, f):
    # numpy 2 raises a bare TypeError converting the array to a float;
    # numpy 1.25 to 1.26 read a one-item array as its item, with a
    # DeprecationWarning
    with pytest.raises(ea.InvalidParameterError, match="f_hz must be a single frequency"):
        SINGLE_FREQUENCY_TAKERS[name](f, ref_model, cascades)


@pytest.mark.parametrize(
    "build, fields",
    [
        (lambda f, z: ea.MonteCarloConfig(10, 0.05, 1, freqs_hz=f), ("freqs_hz",)),
        (lambda f, z: ea.TwoMicMeasurement(f, z), ("freqs_hz", "h12")),
        (lambda f, z: ea.MeasuredSpectrum(f, z), ("freqs_hz", "z")),
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


#: name -> call(model, target, fb, cascades) building a value type that
#: holds numpy arrays, or value types that do
ARRAY_HOLDERS = {
    "SensitivityTriple": lambda m, tg, fb, cas: ea.sensitivities(m, m, tg, fb, [628.0, 900.0]),
    "MonteCarloConfig": lambda m, tg, fb, cas: ea.MonteCarloConfig(10, 0.05, 1, [100.0, 200.0]),
    "QuartileBand": lambda m, tg, fb, cas: ea.monte_carlo_absorption(
        m, tg, fb, ea.MonteCarloConfig(10, 0.05, 1, [100.0, 200.0])
    ),
    "SimulationResult": lambda m, tg, fb, cas: ea.closed_loop_sim(
        m, cas, ea.LoopConfig(fs=FS, latency=0, duration=0.01, transient=0.005), 205.5
    ),
    "MeasuredSpectrum": lambda m, tg, fb, cas: ea.passive_spectrum(m, [100.0, 150.0, 200.0]),
    "TwoMicMeasurement": lambda m, tg, fb, cas: ea.simulate_two_mic(
        [100.0, 200.0], [400.0 + 0j, 400.0 + 0j], ea.REFERENCE_GEOMETRY, m.air
    ),
    "ReflectionResult": lambda m, tg, fb, cas: ea.recover_reflection(
        ARRAY_HOLDERS["TwoMicMeasurement"](m, tg, fb, cas), ea.REFERENCE_GEOMETRY, m.air
    ),
    "RationalTransfer": lambda m, tg, fb, cas: ea.synthesize_controller(m, tg, fb).h1,
    "ControllerPair": lambda m, tg, fb, cas: ea.synthesize_controller(m, tg, fb),
}


@pytest.mark.parametrize("name", sorted(ARRAY_HOLDERS))
def test_array_holding_types_compare_by_identity(ref_model, targets, fb4, cascades, name):
    # value equality would compare the arrays field by field, whose truth
    # value numpy refuses, and hashing would hash the arrays
    value = ARRAY_HOLDERS[name](ref_model, targets["1dof"], fb4, cascades)
    assert type(value).__name__ == name
    assert (value == copy.deepcopy(value)) is False
    assert value == value
    hash(value)


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
    [
        (1, True, "rel_std"),
        (1, -0.1, "rel_std"),
        (1, 10**400, "rel_std"),
        (-1, 0.05, "seed"),
        (1.5, 0.05, "seed"),
    ],
    ids=["bool-rel-std", "negative-rel-std", "beyond-float-rel-std", "negative-seed", "float-seed"],
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


#: the section row of H(z) = 1
PASSTHROUGH = (1.0, 0.0, 0.0, 0.0, 0.0)

#: name -> (call(value, model, cascades) passing `value` as one physical
#: parameter, the start of the message that refuses a bad one)
PARAMETER_TAKERS = {
    "AirProperties.c0": (lambda x, m, cas: ea.AirProperties(c0=x), "c0 must be"),
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
    "WaveguideGeometry.diameter": (
        lambda x, m, cas: ea.WaveguideGeometry(0.1, 0.42, 0.97, x),
        "diameter must be",
    ),
    "SosCascade.gain": (lambda x, m, cas: ea.SosCascade([PASSTHROUGH], x, FS), "gain must be"),
    "SosCascade.fs": (lambda x, m, cas: ea.SosCascade([PASSTHROUGH], 1.0, x), "fs must be"),
    "bilinear_discretize.fs": (
        lambda x, m, cas: ea.bilinear_discretize(ea.RationalTransfer.constant(1.0), x),
        "fs must be",
    ),
    "closed_loop_sim.amplitude": (
        lambda x, m, cas: ea.closed_loop_sim(
            m, cas, ea.LoopConfig(fs=FS, duration=0.01, transient=0.005), 400.0, x
        ),
        "amplitude must be",
    ),
}


@pytest.mark.parametrize(
    "value",
    [True, np.True_, "5e4", None, 1j, 10**400],
    ids=["bool", "numpy-bool", "str", "none", "complex", "beyond-float"],
)
@pytest.mark.parametrize("name", sorted(PARAMETER_TAKERS))
def test_non_real_parameter_is_refused(ref_model, cascades, name, value):
    # a bool would be taken as 1 or 0, a string, None or a complex would
    # raise an untyped TypeError from the comparison, and an integer beyond
    # float range a bare OverflowError
    call, match = PARAMETER_TAKERS[name]
    with pytest.raises(ea.InvalidParameterError, match=match):
        call(value, ref_model, cascades)


@pytest.mark.parametrize("name", sorted(PARAMETER_TAKERS))
def test_numpy_real_parameter_is_taken(ref_model, cascades, name):
    call, _ = PARAMETER_TAKERS[name]
    for value in (np.float64(0.25), np.float32(0.25), np.int64(1)):
        call(value, ref_model, cascades)


#: type name -> (build(x), fields): build passes each checked number v as
#: x(v), and fields are the ones that hold them
FLOAT_FIELDS = {
    "AirProperties": (lambda x: ea.AirProperties(x(1.2), x(343.0)), ("rho0", "c0")),
    "RawDriverParams": (
        lambda x: ea.RawDriverParams(x(0.01), x(5e-4), x(1.0), x(5.0), x(0.01), x(0.01)),
        ("mms", "cms", "rms", "bl", "sd", "vb"),
    ),
    "DriverModel": (
        lambda x: ea.DriverModel(x(277.2), x(1291.2), x(5.466), x(1084.0), x(1.808e-6)),
        ("rss", "omega0", "qms", "pressure_factor", "csb"),
    ),
    "CurrentSourceDesign": (
        lambda x: ea.CurrentSourceDesign(x(92e3), x(92e3), x(1.1e3), x(1.1e3), x(1.2)),
        ("r1", "r2", "r3", "r4", "r5"),
    ),
    "Resonator": (lambda x: ea.Resonator(x(411.6), x(2513.3), x(7.0)), ("rst", "omega_t", "qt")),
    "FeedbackSpec": (lambda x: ea.FeedbackSpec(x(4.0), x(3141.6)), ("kg", "omega_g")),
    "LoopConfig": (
        lambda x: ea.LoopConfig(fs=x(48e3), duration=x(0.5), transient=x(0.25)),
        ("fs", "duration", "transient"),
    ),
    "WaveguideGeometry": (
        lambda x: ea.WaveguideGeometry(x(0.1), x(0.42), x(0.97), x(0.1)),
        ("delta_x", "x1", "length", "diameter"),
    ),
    "SosCascade": (lambda x: ea.SosCascade([PASSTHROUGH], x(2.0), x(48e3)), ("gain", "fs")),
    "MonteCarloConfig": (lambda x: ea.MonteCarloConfig(10, x(0.05), 1), ("rel_std",)),
    "ProbeGain": (lambda x: ea.ProbeGain(x(1.8e-4)), ("k",)),
    "FeedbackSpec.from_hz": (lambda x: ea.FeedbackSpec.from_hz(x(4.0), x(500.0)), ("kg", "omega_g")),
    "TargetSpec.multi": (
        lambda x: ea.TargetSpec.multi([(x(411.6), x(400.0), x(7.0))]).resonators[0],
        ("rst", "omega_t", "qt"),
    ),
    "DriverModel.scaled": (
        lambda x: ea.table_reference_model().scaled(x(0.95), x(1.05), x(0.9), x(1.1), x(0.97)),
        ("rss", "omega0", "qms", "pressure_factor", "csb"),
    ),
}


def via_float32(v) -> float:
    """The float64 of v's nearest float32."""
    return float(np.float32(v))


@pytest.mark.parametrize("name", sorted(FLOAT_FIELDS))
def test_value_types_hold_python_floats(name):
    # each checked number is kept as the float its check returns, so a
    # numpy.float32 argument computes in float64: a builder that scales it
    # gives the bytes of the float64 of the same value
    build, fields = FLOAT_FIELDS[name]
    value, reference = build(np.float32), build(via_float32)
    for field in fields:
        assert type(getattr(value, field)) is float
        assert getattr(value, field) == getattr(reference, field)


def test_counts_keep_the_integer_given():
    loop = ea.LoopConfig(latency=np.int32(2))
    cfg = ea.MonteCarloConfig(np.int16(10), 0.05, np.uint8(1))
    assert type(loop.latency) is np.int32
    assert (type(cfg.n_draws), type(cfg.seed)) == (np.int16, np.uint8)


def reference_driver(x, ref_model) -> ea.DriverModel:
    """The reference model with each parameter v passed as x(v)."""
    m = ref_model
    return ea.DriverModel(*(x(v) for v in (m.rss, m.omega0, m.qms, m.pressure_factor, m.csb)))


def test_float32_amplitude_runs_in_float64(ref_model, cascades):
    loop = ea.LoopConfig(fs=FS, duration=0.01, transient=0.005)
    runs = [ea.closed_loop_sim(ref_model, cascades, loop, 400.0, a) for a in (np.float32(3.0), 3.0)]
    for name in ("pf", "pb", "v", "i"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes()
    assert runs[0].measured_impedance() == runs[1].measured_impedance()


def test_float32_model_and_probe_compute_in_float64(ref_model, targets, fb4):
    # the same values as float32 and as float64 give the same bytes
    models = [reference_driver(x, ref_model) for x in (np.float32, via_float32)]
    omega = 2.0 * np.pi * np.array([50.0, 205.5, 400.0, 900.0])
    z = [ea.achieved_impedance(m, m, targets["2dof"], fb4, omega) for m in models]
    assert z[0].tobytes() == z[1].tobytes()
    k = 0.2 / ref_model.pressure_factor
    probes = [ea.ProbeGain(x(k)) for x in (np.float32, via_float32)]
    spectra = [ea.probe_front_spectrum(m, k1) for m, k1 in zip(models, probes)]
    assert spectra[0].z.tobytes() == spectra[1].z.tobytes()


def test_stability_report_of_a_float32_model_serializes(ref_model, fb4):
    # json refuses a numpy.float32 where it takes a float
    models = [reference_driver(x, ref_model) for x in (np.float32, via_float32)]
    reports = [ea.stability_report(m, fb4).to_json() for m in models]
    assert reports[0] == reports[1]
