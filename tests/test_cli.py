import ast
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import eabsorb as ea
from eabsorb import cli
from eabsorb.cli import main
from conftest import FIXTURES


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def onedof_config():
    return FIXTURES / "table1_1dof.json"


def test_design_writes_outputs(tmp_path, onedof_config):
    out = tmp_path / "d"
    assert run(["design", "--config", onedof_config, "--out", out]) == 0
    stability = json.loads((out / "stability.json").read_text())
    assert stability["stable"] is True
    # each JSON output is indented by two spaces and ends with a newline
    for name in ("controller.json", "h1_sos.json", "h2_sos.json", "stability.json"):
        text = (out / name).read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    h1 = ea.SosCascade.from_json((out / "h1_sos.json").read_text())
    assert h1.fs == 50_000.0
    assert h1.is_stable


def test_design_deterministic_reruns(tmp_path, onedof_config):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["design", "--config", onedof_config, "--out", out1])
    run(["design", "--config", onedof_config, "--out", out2])
    for name in ("controller.json", "h1_sos.json", "h2_sos.json", "stability.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_design_zero_feedback_h2_zero(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["feedback"]["kg"] = 0.0
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "d"
    assert run(["design", "--config", p, "--out", out]) == 0
    h2 = ea.SosCascade.from_json((out / "h2_sos.json").read_text())
    assert h2.gain == 0.0


#: a target and feedback whose values a conversion back from the types
#: changes: omega / 2pi gives fg_hz 999.9999999999999 and f_hz
#: 5.499999999999999, rst / (rho0 * c0) gives rst_norm 1.2999999999999998
ROUND_TRIP_OFF = {
    "target": {
        "resonators": [
            {"rst_norm": 1.3, "f_hz": 5.5, "q": 7.0},
            {"rst_norm": 1.0, "f_hz": 400.0, "q": 7.0},
        ]
    },
    "feedback": {"kg": 4.0, "fg_hz": 1000.0},
}


@pytest.mark.parametrize("name", ["1dof", "2dof", "broadband", "round-trip-off"])
def test_controller_specs_read_back(tmp_path, name):
    # controller.json's "specs" block restates the config's target and
    # feedback values as read (each fixture's fg_hz 500.0, not the
    # 499.99999999999994 of omega_g / 2pi), and, read back through the CLI's
    # own config reader, gives the target and feedback the design came from
    if name == "round-trip-off":
        cfg = {**json.loads((FIXTURES / "table1_2dof.json").read_text()), **ROUND_TRIP_OFF}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
    else:
        config = FIXTURES / f"table1_{name}.json"
        cfg = json.loads(config.read_text())
    assert run(["design", "--config", config, "--out", tmp_path / "d"]) == 0
    specs = json.loads((tmp_path / "d" / "controller.json").read_text())["specs"]
    assert specs == {"resonators": cfg["target"]["resonators"], **cfg["feedback"]}
    _, driver, target, fb = cli._load(config)
    echoed = {
        "target": {"resonators": specs["resonators"]},
        "feedback": {"kg": specs["kg"], "fg_hz": specs["fg_hz"]},
    }
    assert cli._specs_from_config(echoed, driver.air) == (target, fb)


def test_config_keys_are_read_only_in_cli(tmp_path, onedof_config):
    # the config format lives in cli.py: no other module spells its
    # target, feedback or geometry keys, and cli.py restates no default of
    # dsp.LoopConfig: design without a simulate block runs at LoopConfig's rate
    package = Path(ea.__file__).resolve().parent
    literals = ['"rst_norm"', '"fg_hz"', '"delta_x_m"', '"x1_m"', '"length_m"', '"diameter_m"']
    for path in package.glob("*.py"):
        text = path.read_text()
        found = [key for key in literals if key in text]
        assert found == [] or path.name == "cli.py", (path.name, found)
    assert "50_000" not in (package / "cli.py").read_text()
    assert "simulate" not in json.loads(onedof_config.read_text())
    assert run(["design", "--config", onedof_config, "--out", tmp_path]) == 0
    assert '"fs_hz": 50000.0' in (tmp_path / "h1_sos.json").read_text()


def test_value_checks_are_declared_only_in_errors():
    # one vocabulary for config keys and library fields: no module but
    # errors.py spells a value check's message, and the reader's tables
    # name errors' checks, with none of cli.py's own
    package = Path(ea.__file__).resolve().parent
    phrases = [
        f"must be a {bound} {kind}"
        for bound in ("positive", "non-negative")
        for kind in ("number", "integer")
    ]
    for path in package.glob("*.py"):
        text = path.read_text()
        found = [phrase for phrase in phrases if phrase in text]
        assert found == [] or path.name == "errors.py", (path.name, found)
    checks = {check for table in cli._TABLES.values() for check, _, _ in table.values()}
    assert checks == {None, ea.errors.check_number, ea.errors.check_count}
    own = [
        name
        for name, value in vars(cli).items()
        if callable(value) and getattr(value, "__module__", None) == cli.__name__
        and ("check" in name or name in ("_number", "_integer"))
    ]
    assert own == []


def _top_level_names(tree):
    """The names a module's top level binds by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_public_names_are_listed_once():
    # each name is listed in the __all__ of the module that defines it, and
    # the package re-exports those lists without spelling any name again
    package = Path(ea.__file__).resolve().parent
    modules = [
        ea.analysis, ea.dsp, ea.errors, ea.identify, ea.model, ea.rational, ea.synthesis, ea.vkundt
    ]
    for module in modules:
        defined = _top_level_names(ast.parse(Path(module.__file__).read_text()))
        assert set(module.__all__) <= defined, module.__name__
    assert ea.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(ea.__all__)) == len(ea.__all__) == 59
    init = ast.parse((package / "__init__.py").read_text())
    spelt = {node.name for node in ast.walk(init) if isinstance(node, ast.alias)}
    spelt |= {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    assert spelt & set(ea.__all__) == set()


def _name_tokens(text) -> Counter:
    """How often each NAME token occurs in the Python source `text`: names
    inside strings and comments are not counted."""
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return Counter(token.string for token in tokens if token.type == tokenize.NAME)


def test_public_names_have_callers():
    # a user reaches each public name: the package uses it beyond its own
    # definition, the benchmark runs it, or a README example shows it
    package = Path(ea.__file__).resolve().parent
    root = package.parent.parent
    in_package = sum((_name_tokens(p.read_text()) for p in package.glob("*.py")), Counter())
    reached = {name for name, count in in_package.items() if count > 1}
    for path in (root / "perfbench").glob("*.py"):
        reached |= set(_name_tokens(path.read_text()))
    for block in re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), flags=re.S):
        reached |= set(_name_tokens(block))
    assert sorted(set(ea.__all__) - reached) == []


def test_cli_restates_no_loop_check():
    # LoopConfig alone checks the latency bound and the hold, and _block is
    # the one place that puts a config object's name on a library refusal
    tree = ast.parse(Path(cli.__file__).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "MAX_LATENCY" not in names
    strings = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert [x for x in strings if "centered" in str(x) or "causal" in str(x)] == []
    catchers = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for handler in ast.walk(function)
        if isinstance(handler, ast.ExceptHandler)
        and "InvalidParameterError" in ast.dump(handler.type)
    }
    assert catchers == {"_block", "main"}


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["design", "--config", p, "--out", tmp_path / "o"]) == 2
    p2 = tmp_path / "wrong_version.json"
    p2.write_text(json.dumps({"version": 99}))
    assert run(["design", "--config", p2, "--out", tmp_path / "o"]) == 2
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    del cfg["target"]["resonators"][0]["q"]
    p3 = tmp_path / "no_q.json"
    p3.write_text(json.dumps(cfg))
    assert run(["design", "--config", p3, "--out", tmp_path / "o"]) == 2


BAD_VALUES = {
    "grid-step-zero": ("montecarlo", ("grid", "step_hz"), 0, "grid.step_hz"),
    "grid-step-missing": ("kundt", ("grid", "step_hz"), None, "grid.step_hz"),
    "geometry-no-delta-x": (
        "kundt",
        ("kundt", "geometry"),
        {"x1_m": 0.42, "length_m": 0.97, "diameter_m": 0.072},
        "kundt.geometry.delta_x_m",
    ),
    "noise-not-a-number": ("kundt", ("kundt", "noise_rel_std"), "x", "kundt.noise_rel_std"),
    "noise-seed-negative": ("kundt", ("kundt", "noise_seed"), -3, "kundt.noise_seed"),
    "simulate-negative-freq": ("simulate", ("simulate", "freqs_hz"), [-5], "simulate.freqs_hz"),
    "simulate-freqs-scalar": (
        "simulate",
        ("simulate", "freqs_hz"),
        205.5,
        "simulate.freqs_hz must be a non-empty list",
    ),
    "simulate-freqs-empty": (
        "simulate",
        ("simulate", "freqs_hz"),
        [],
        "simulate.freqs_hz must be a non-empty list",
    ),
    "n-draws-missing": ("montecarlo", ("montecarlo", "n_draws"), None, "montecarlo.n_draws is missing"),
    "rel-std-missing": ("montecarlo", ("montecarlo", "rel_std"), None, "montecarlo.rel_std is missing"),
    "seed-missing": ("montecarlo", ("montecarlo", "seed"), None, "montecarlo.seed is missing"),
    "seed-negative": ("montecarlo", ("montecarlo", "seed"), -1, "seed"),
    "seed-not-integer": ("montecarlo", ("montecarlo", "seed"), 1.5, "seed"),
    "seed-string": ("montecarlo", ("montecarlo", "seed"), "7", "seed"),
    "n-draws-not-integer": ("montecarlo", ("montecarlo", "n_draws"), 300.9, "montecarlo.n_draws"),
    "latency-not-integer": ("simulate", ("simulate", "latency"), 1.7, "simulate.latency"),
    "latency-past-bound": (
        "simulate",
        ("simulate", "latency"),
        1001,
        "simulate: latency must be at most 1000, got 1001",
    ),
    "hold-unknown": (
        "simulate",
        ("simulate", "hold"),
        "zoh",
        "simulate: hold must be 'centered' or 'causal', got 'zoh'",
    ),
    "transient-past-duration": (
        "simulate",
        ("simulate", "transient_s"),
        2.0,
        "simulate: transient must be below duration, got 2.0 >= 1.0",
    ),
    "duration-below-transient": (
        "simulate",
        ("simulate", "duration_s"),
        0.1,
        "simulate: transient must be below duration, got 0.5 >= 0.1",
    ),
    "estimate-factor-string": ("kundt", ("estimate_factors", "rss"), "x", "estimate_factors.rss"),
    "amplitude-nan": ("simulate", ("simulate", "amplitude_pa"), "nan", "simulate.amplitude_pa"),
    # both would write timeseries_205.5hz.csv, and the first series be lost
    "freqs-one-file-name": (
        "simulate",
        ("simulate", "freqs_hz"),
        [205.5, 205.50001],
        "simulate.freqs_hz must differ to 6 significant digits, got [205.5, 205.50001]",
    ),
    "driver-rss-nan": ("design", ("driver", "rss"), "nan", "driver.rss"),
    "driver-csb-inf": ("kundt", ("driver", "csb_m_per_pa"), "inf", "driver.csb_m_per_pa"),
    "feedback-fg-inf": ("kundt", ("feedback", "fg_hz"), "inf", "feedback.fg_hz"),
    "geometry-delta-x-nan": (
        "kundt",
        ("kundt", "geometry"),
        {"delta_x_m": "nan", "x1_m": 0.42, "length_m": 0.97, "diameter_m": 0.072},
        "kundt.geometry.delta_x_m",
    ),
    "geometry-delta-x-past-x1": (
        "kundt",
        ("kundt", "geometry"),
        {"delta_x_m": 0.5, "x1_m": 0.42, "length_m": 0.97, "diameter_m": 0.072},
        "kundt.geometry: delta_x must be smaller than x1",
    ),
    "geometry-mics-past-end": (
        "kundt",
        ("kundt", "geometry"),
        {"delta_x_m": 0.1, "x1_m": 0.42, "length_m": 0.3, "diameter_m": 0.072},
        "kundt.geometry: x1 + delta_x must be below length, got 0.52 >= 0.3",
    ),
    # 700 Hz = c0 / (2 * delta_x): the two-microphone inversion is singular
    "geometry-half-wavelength-spacing": (
        "kundt",
        ("kundt", "geometry"),
        {"delta_x_m": 0.245, "x1_m": 0.42, "length_m": 0.97, "diameter_m": 0.072},
        "kundt: two-microphone inversion singular at 700.0 Hz",
    ),
    # values each key's own check takes, refused by the library where the
    # value is built, under the name of the config object it is built from
    "driver-f0-overflow": (
        "design", ("driver", "f0_hz"), 1e308, "driver: omega0 must be a positive number, got inf"
    ),
    "feedback-fg-overflow": (
        "design",
        ("feedback", "fg_hz"),
        1e308,
        "feedback: omega_g must be a positive number, got inf",
    ),
    "estimate-factor-overflow": (
        "kundt",
        ("estimate_factors", "rss"),
        1e308,
        "estimate_factors: rss must be a positive number, got inf",
    ),
    "rel-std-past-bound": (
        "montecarlo",
        ("montecarlo", "rel_std"),
        0.3,
        "montecarlo: rel_std must be in [0, 0.2), got 0.3",
    ),
    "n-draws-past-bound": (
        "montecarlo",
        ("montecarlo", "n_draws"),
        2**33,
        "montecarlo: n_draws must be at most 4294967296, got 8589934592",
    ),
    "grid-past-plane-wave-limit": (
        "kundt",
        ("grid", "f_max_hz"),
        5000.0,
        "kundt: frequencies above the plane-wave limit (2792 Hz) are not supported",
    ),
    "grid-empty": (
        "montecarlo", ("grid", "f_max_hz"), 5.0, "grid is empty: f_max_hz 5.0 < f_min_hz 10.0"
    ),
    "simulate-unfittable-freq": (
        "simulate",
        ("simulate", "freqs_hz"),
        [25_000.0],
        "simulate: f_hz 25000.0 cannot be fitted at fs 50000.0",
    ),
}


#: the cases of the simulate block that design, which realizes the same
#: loop, refuses alike
REALIZATION_CASES = (
    "latency-past-bound", "hold-unknown", "transient-past-duration", "duration-below-transient"
)


@pytest.mark.parametrize(
    "case, verb",
    [pytest.param(case, BAD_VALUES[case][0], id=case) for case in BAD_VALUES]
    + [pytest.param(case, "design", id=f"{case}-design") for case in REALIZATION_CASES],
)
def test_bad_config_values_exit_2(tmp_path, capsys, case, verb):
    # each bad value is a config error naming its key, never a traceback,
    # and no output directory is made
    _, (block, key), value, name = BAD_VALUES[case]
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    if block == "driver":  # the fixture's is {"reference": true}
        cfg["driver"] = json.loads((FIXTURES / "table3_driver.json").read_text())
    if value is None:
        del cfg[block][key]
    else:
        cfg.setdefault(block, {})[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run([verb, "--config", p, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda c: c["target"]["resonators"][0].update(q="nan"), "target.resonators[0].q must be"),
        (lambda c: c["target"]["resonators"].append([1]), "target.resonators[1] must be an object"),
        (lambda c: c["target"].update(resonators=[]), "target.resonators must be a non-empty list"),
        (lambda c: c["feedback"].update(kg=-1.0), "feedback.kg must be a non-negative number"),
        (lambda c: c["feedback"].pop("fg_hz"), "feedback.fg_hz is missing"),
        (lambda c: c.update(driver={"rss": 277.0}), "driver.f0_hz is missing"),
        (lambda c: c.update(driver=[1]), "driver must be an object, got list"),
        # JSON numbers only: no booleans, no strings, no integers beyond float
        (
            lambda c: c["feedback"].update(kg=True),
            "feedback.kg must be a non-negative number, got True",
        ),
        (
            lambda c: c["target"]["resonators"][0].update(q="7"),
            "target.resonators[0].q must be a positive number, got '7'",
        ),
        (
            lambda c: c["target"]["resonators"][0].update(q=10**400),
            "target.resonators[0].q must be a positive number, got 1000",
        ),
        # finite keys whose products overflow: 2 pi f_hz, rst_norm rho0 c0
        (
            lambda c: c["target"]["resonators"][0].update(f_hz=1e308),
            "target: omega_t must be a positive number, got inf",
        ),
        (
            lambda c: c["target"]["resonators"][0].update(rst_norm=1e307),
            "target: rst must be a positive number, got inf",
        ),
    ],
    ids=[
        "resonator-q-nan",
        "resonator-list",
        "no-resonators",
        "kg-negative",
        "no-fg",
        "driver-f0",
        "driver-list",
        "kg-bool",
        "resonator-q-string",
        "resonator-q-401-digits",
        "resonator-f-overflow",
        "resonator-rst-overflow",
    ],
)
def test_nested_config_errors_name_the_key(tmp_path, capsys, edit, message):
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    edit(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["design", "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


@pytest.mark.parametrize(
    "verb, block, value",
    [
        ("simulate", "simulate", [1]),
        ("design", "simulate", [1]),
        ("kundt", "kundt", [1]),
        ("kundt", "estimate_factors", ["rss"]),
        ("kundt", "grid", [1]),
        ("montecarlo", "montecarlo", [1]),
    ],
    ids=["simulate", "design", "kundt", "estimate-factors", "grid", "montecarlo"],
)
def test_non_object_block_is_config_error(tmp_path, capsys, verb, block, value):
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg[block] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run([verb, "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"config error: {block} must be an object, got list\n"


GEOMETRY = {"delta_x_m": 0.1, "x1_m": 0.42, "length_m": 0.97, "diameter_m": 0.072}


@pytest.mark.parametrize(
    "verb, edit, block, keys",
    [
        ("design", lambda c: c.update(simlate={}), "config", ["simlate"]),
        ("design", lambda c: c["driver"].update(Rss=1.0), "driver", ["Rss"]),
        ("design", lambda c: c["target"].update(resonator=[]), "target", ["resonator"]),
        (
            "design",
            lambda c: c["target"]["resonators"][0].update(Q=3.0),
            "target.resonators[0]",
            ["Q"],
        ),
        ("design", lambda c: c["feedback"].update(kgg=1.0), "feedback", ["kgg"]),
        ("kundt", lambda c: c["grid"].update(stepp_hz=5.0), "grid", ["stepp_hz"]),
        ("montecarlo", lambda c: c["montecarlo"].update(ndraws=5), "montecarlo", ["ndraws"]),
        ("kundt", lambda c: c.update(kundt={"noise_sed": 3, "geometri": {}}), "kundt",
         ["geometri", "noise_sed"]),
        ("kundt", lambda c: c.update(kundt={"geometry": dict(GEOMETRY, d=1.0)}), "kundt.geometry",
         ["d"]),
        ("simulate", lambda c: c.update(simulate={"latancy": 3}), "simulate", ["latancy"]),
        # design reads simulate.fs_hz, so it checks every simulate key
        ("design", lambda c: c.update(simulate={"latancy": 3}), "simulate", ["latancy"]),
        ("kundt", lambda c: c.update(estimate_factors={"Rss": 1.0}), "estimate_factors", ["Rss"]),
    ],
    ids=[
        "config",
        "driver",
        "target",
        "resonator",
        "feedback",
        "grid",
        "montecarlo",
        "kundt",
        "geometry",
        "simulate",
        "design-simulate",
        "estimate-factors",
    ],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, verb, edit, block, keys):
    # a misspelt key is refused by name, never read as its default
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["driver"] = json.loads((FIXTURES / "table3_driver.json").read_text())
    edit(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([verb, "--config", p, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: unknown {block} keys: {keys}\n"
    assert not out.exists()


def test_design_checks_every_simulate_key(tmp_path, capsys, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["simulate"] = {"latency": 1.5}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["design", "--config", p, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == "config error: simulate.latency must be a non-negative integer, got 1.5\n"


@pytest.mark.parametrize(
    "verb, simulate, fs",
    [
        ("design", {"fs_hz": 1e12}, "1000000000000.0"),
        ("simulate", {"fs_hz": 1e12, "duration_s": 1e-9, "transient_s": 0.0}, "1000000000000.0"),
        ("simulate", {"fs_hz": 1e19}, "1e+19"),
    ],
    ids=["design", "simulate", "simulate-1e19"],
)
def test_design_refuses_an_unstable_discrete_filter(
    tmp_path, capfd, onedof_config, verb, simulate, fs
):
    # the continuous loop is stable (stable=True), but at 1e12 Hz the
    # bilinear map of h1 has a pole outside the unit circle: design says so
    # and writes no filter, and simulate runs no loop on it, whose fit
    # would read Re Z = 2.3e9 Pa.s/m
    cfg = json.loads(onedof_config.read_text())
    cfg["simulate"] = simulate
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([verb, "--config", p, "--out", out]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"numerical error: h1 is unstable once discretized at {fs} Hz\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "5", "null"], ids=["list", "str", "int", "null"])
def test_non_object_config_is_config_error(tmp_path, capsys, text):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert run(["design", "--config", p, "--out", tmp_path / "o"]) == 2
    kind = type(json.loads(text)).__name__
    assert capsys.readouterr().err == f"config error: config must be a JSON object, got {kind}\n"


@pytest.mark.parametrize(
    "data",
    [b'{"version": 1, "target": "\xff"}', b'{"version": 1, "q": 1' + b"0" * 5000 + b"}"],
    ids=["not-utf8", "5001-digit-integer"],
)
def test_unparsable_config_text_is_config_error(tmp_path, capsys, data):
    p = tmp_path / "cfg.json"
    p.write_bytes(data)
    assert run(["design", "--config", p, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("verb", ["design", "simulate", "montecarlo", "kundt"])
def test_overflowing_target_is_a_numerical_error(tmp_path, capsys, verb):
    # at q = 1e300 the target's products overflow float64: every config
    # verb reports that, and montecarlo writes no band of NaN quartiles
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["target"]["resonators"][0]["q"] = 1e300
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([verb, "--config", p, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "Traceback" not in err
    assert not (out / "montecarlo.csv").exists()


def test_subnormal_resonance_is_a_numerical_error(tmp_path, capsys):
    # the target's admittance underflows to zero: a typed SynthesisError,
    # not a bare ZeroDivisionError
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["target"]["resonators"][0]["f_hz"] = 5e-324
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["design", "--config", p, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err == "numerical error: target admittance underflows to zero: no finite impedance\n"
    assert not out.exists()


# address-space cap of the subprocess: a case sized wrongly fails fast
_AS_LIMIT = 3 * 2**30
_CAPPED_MAIN = (
    "import resource, sys\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({_AS_LIMIT}, {_AS_LIMIT}))\n"
    "from eabsorb.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "verb, edit",
    [
        ("montecarlo", lambda c: c["grid"].update(step_hz=1e-12)),
        ("kundt", lambda c: c["grid"].update(step_hz=1e-12)),
        ("simulate", lambda c: c.update(simulate={"duration_s": 1e12})),
        (
            "montecarlo",
            lambda c: (
                c["montecarlo"].update(n_draws=2**32),
                c["grid"].update(step_hz=0.005),
            ),
        ),
        # grids past 2**63 elements, which numpy cannot even index
        ("montecarlo", lambda c: c["grid"].update(step_hz=1e-20)),
        ("kundt", lambda c: c["grid"].update(step_hz=1e-20)),
        ("simulate", lambda c: c.update(simulate={"duration_s": 1e15})),
        # 1e19 ticks, with both filters stable at 1e10 Hz
        ("simulate", lambda c: c.update(simulate={"fs_hz": 1e10, "duration_s": 1e9})),
    ],
    ids=[
        "grid-montecarlo",
        "grid-kundt",
        "duration",
        "n-draws",
        "grid-montecarlo-unindexable",
        "grid-kundt-unindexable",
        "duration-unindexable",
        "sample-rate-unindexable",
    ],
)
def test_oversized_config_is_out_of_memory(tmp_path, verb, edit):
    # each config asks numpy for one array past 2**48 bytes (a 7 PiB grid,
    # 355 PiB of samples), which no overcommit setting grants, for one past
    # the 3 GiB address-space cap (the n-draws case: the study's 206 GB
    # (6, 2**32) estimate array, allocated before any draw), or for one past
    # 2**63 elements (1e23 grid points, 5e19 or 1e19 samples): exit 3 with
    # one line, not a traceback
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    edit(cfg)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    src = str(Path(ea.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, verb, "--config", str(p), "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("out of memory:") and proc.stderr.count("\n") == 1
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "duration, transient",
    [(1e-5, 0.0), (1e-4, 9.5e-5)],
    ids=["no-tick", "no-tick-after-transient"],
)
def test_short_time_grid_is_config_error(tmp_path, capsys, duration, transient):
    # at 50 kHz, 1e-5 s holds no tick, and 1e-4 s none from 9.5e-5 s on:
    # no sinusoid can be fitted, so simulate writes no NaN impedance
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["simulate"] = {"duration_s": duration, "transient_s": transient}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["simulate", "--config", p, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "fewer than 2 ticks of the time grid" in err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "freqs",
    [[25_000.0], [205.5, 25_000.0], [205.5, 400.0, 50_000.0]],
    ids=["half-fs", "half-fs-second", "fs-third"],
)
def test_unfittable_frequency_is_config_error(tmp_path, capsys, freqs):
    # at a multiple of fs/2 (50 kHz here) the sampled sine vanishes and its
    # fit is meaningless: no time series is written, not even those of the
    # frequencies before it
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["simulate"] = {"freqs_hz": freqs}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run(["simulate", "--config", p, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"f_hz {freqs[-1]!r}" in err and "fs/2" in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["design", "simulate"])
def test_overflowing_sample_rate_is_a_numerical_error(tmp_path, capfd, verb):
    # at fs = 1e300 the bilinear coefficients overflow float64; LAPACK must
    # never see them (it printed a DLASCL line and the verb a traceback)
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["simulate"] = {"fs_hz": 1e300}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run([verb, "--config", p, "--out", out]) == 3
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical error: bilinear coefficients overflow")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("verb, code", [("design", 3), ("simulate", 3), ("kundt", 0)])
def test_tiny_compliance_is_a_numerical_error(tmp_path, capsys, verb, code):
    # with csb at 1e-18 m/Pa, h2's continuous zero lies near s = 2*fs and
    # its bilinear map loses the leading coefficient; the verbs that
    # discretize report that, kundt does not discretize and runs
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    cfg["driver"] = json.loads((FIXTURES / "table3_driver.json").read_text())
    cfg["driver"]["csb_m_per_pa"] = 1e-18
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run([verb, "--config", p, "--out", tmp_path / "o"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numerical error:") and "Traceback" not in err
    else:
        assert err == ""


@pytest.mark.parametrize("verb", ["montecarlo", "kundt"])
def test_negative_seed_flag_exits_2(tmp_path, capsys, verb):
    code = run([verb, "--config", FIXTURES / "table1_1dof.json", "--out", tmp_path, "--seed", -1])
    assert code == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path):
    assert run(["design", "--config", tmp_path / "absent.json", "--out", tmp_path]) == 2


def test_montecarlo_reproducible(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["montecarlo"]["n_draws"] = 200
    cfg["grid"] = {"f_min_hz": 150.0, "f_max_hz": 300.0, "step_hz": 10.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert run(["montecarlo", "--config", p, "--out", out1]) == 0
    assert run(["montecarlo", "--config", p, "--out", out2]) == 0
    assert (out1 / "montecarlo.csv").read_bytes() == (out2 / "montecarlo.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--config", FIXTURES / "table1_1dof.json", "--seed", 1],
        ["montecarlo", "--config", FIXTURES / "table1_1dof.json", "--threads", 2],
    ],
    ids=["design-seed", "montecarlo-threads"],
)
def test_unused_knobs_are_rejected(tmp_path, argv):
    # --seed is taken only by the verbs that read it; --threads by none
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", tmp_path])
    assert exc.value.code == 2


def test_montecarlo_seed_overrides_config(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["montecarlo"]["n_draws"] = 50
    cfg["grid"] = {"f_min_hz": 150.0, "f_max_hz": 300.0, "step_hz": 10.0}
    base = tmp_path / "base.json"
    base.write_text(json.dumps(cfg))
    cfg["montecarlo"]["seed"] = 7
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert run(["montecarlo", "--config", base, "--out", out1, "--seed", 7]) == 0
    assert run(["montecarlo", "--config", seeded, "--out", out2]) == 0
    assert (out1 / "montecarlo.csv").read_bytes() == (out2 / "montecarlo.csv").read_bytes()


def test_montecarlo_feedback_narrows(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["montecarlo"]["n_draws"] = 500
    cfg["grid"] = {"f_min_hz": 200.0, "f_max_hz": 212.0, "step_hz": 2.0}
    pa = tmp_path / "kg4.json"
    pa.write_text(json.dumps(cfg))
    cfg["feedback"]["kg"] = 0.0
    pb = tmp_path / "kg0.json"
    pb.write_text(json.dumps(cfg))
    out4, out0 = tmp_path / "o4", tmp_path / "o0"
    run(["montecarlo", "--config", pa, "--out", out4])
    run(["montecarlo", "--config", pb, "--out", out0])
    b4 = ea.QuartileBand.from_csv(out4 / "montecarlo.csv")
    b0 = ea.QuartileBand.from_csv(out0 / "montecarlo.csv")
    i = np.argmin(np.abs(b4.freqs_hz - 206.0))
    assert b4.width[i] < b0.width[i]


def identify_args(tmp_path, model):
    """`identify` options reading the passive and default-probe spectra of
    `model`, written as CSVs to tmp_path."""
    k1, k2 = ea.default_probe_gains(model)
    ea.passive_spectrum(model).to_csv(tmp_path / "passive.csv", model.air)
    ea.probe_front_spectrum(model, k1).to_csv(tmp_path / "front.csv", model.air)
    ea.probe_rear_spectrum(model, k2).to_csv(tmp_path / "rear.csv", model.air)
    return [
        "--passive", tmp_path / "passive.csv",
        "--front", tmp_path / "front.csv",
        "--rear", tmp_path / "rear.csv",
        "--k1", k1.k,
        "--k2", k2.k,
    ]


def test_identify_command(tmp_path, ref_model):
    out = tmp_path / "id"
    assert run(["identify", *identify_args(tmp_path, ref_model), "--out", out]) == 0
    text = (out / "identified_model.json").read_text()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    got = json.loads(text)
    assert got["f0_hz"] == pytest.approx(205.5, rel=1e-9)
    assert got["qms"] == pytest.approx(5.466, rel=1e-9)
    assert got["f_pa_per_a"] == pytest.approx(1084.0, rel=1e-9)
    assert got["csb_m_per_pa"] == pytest.approx(1.808e-6, rel=1e-9)
    assert "diagnostics" in got


@pytest.mark.parametrize(
    "column, value, message",
    [
        (0, "nan", "frequencies must be positive and finite, got nan\n"),
        (1, "inf", "impedance samples must be finite"),
    ],
    ids=["freq-nan", "impedance-inf"],
)
def test_identify_non_finite_cell_is_config_error(
    tmp_path, capsys, ref_model, column, value, message
):
    args = identify_args(tmp_path, ref_model)
    lines = (tmp_path / "passive.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[column] = value
    lines[5] = ",".join(cells)
    (tmp_path / "passive.csv").write_text("\n".join(lines) + "\n")
    assert run(["identify", *args, "--out", tmp_path / "id"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed spectrum CSV") and message in err
    assert not (tmp_path / "id" / "identified_model.json").exists()


def test_identify_missing_file_is_io_error(tmp_path, capsys):
    code = run(
        [
            "identify",
            "--passive", tmp_path / "nope.csv",
            "--front", tmp_path / "nope.csv",
            "--rear", tmp_path / "nope.csv",
            "--k1", 1e-4,
            "--k2", 1e-4,
            "--out", tmp_path,
        ]
    )
    assert code == 4
    # main's one OSError path: "i/o error: " and the OS message
    assert capsys.readouterr().err.startswith("i/o error: [Errno 2] No such file or directory")


@pytest.mark.parametrize(
    "text",
    ["", "freq_hz,re_z_norm,im_z_norm\n1.0,x,0.0\n", "freq_hz,re_z_norm,im_z_norm\n1.0,2.0\n"],
    ids=["empty", "not-a-number", "short-row"],
)
def test_identify_malformed_csv_is_config_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code = run(
        [
            "identify",
            "--passive", bad,
            "--front", bad,
            "--rear", bad,
            "--k1", 1e-4,
            "--k2", 1e-4,
            "--out", tmp_path,
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: malformed spectrum CSV")


def test_kundt_command(tmp_path):
    cfg_path = FIXTURES / "table1_2dof.json"
    out = tmp_path / "k"
    assert run(["kundt", "--config", cfg_path, "--out", out]) == 0
    lines = (out / "kundt.csv").read_text().splitlines()
    assert lines[0] == "freq_hz,alpha_passive,alpha_target,alpha_feedforward,alpha_mixed"
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    # noiseless exact parameters: recovered mixed curve equals the target
    np.testing.assert_allclose(data[:, 4], data[:, 2], atol=1e-6)


def test_kundt_mismatch_curves(tmp_path):
    cfg = json.loads((FIXTURES / "table1_2dof.json").read_text())
    cfg["estimate_factors"] = {"pressure_factor": 0.95}
    cfg["grid"] = {"f_min_hz": 100.0, "f_max_hz": 500.0, "step_hz": 2.5}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "k"
    assert run(["kundt", "--config", p, "--out", out]) == 0
    lines = (out / "kundt.csv").read_text().splitlines()[1:]
    data = np.array([[float(x) for x in line.split(",")] for line in lines])
    freqs = data[:, 0]
    i = np.argmin(np.abs(freqs - 205.0))
    target, ff, mixed = data[i, 2], data[i, 3], data[i, 4]
    # the mixed controller tracks the target much closer than pure
    # feedforward around the passive resonance
    assert abs(mixed - target) < abs(ff - target)


def test_montecarlo_without_grid_uses_default_grid(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["montecarlo"]["n_draws"] = 5
    del cfg["grid"]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["montecarlo", "--config", p, "--out", tmp_path / "m"]) == 0
    band = ea.QuartileBand.from_csv(tmp_path / "m" / "montecarlo.csv")
    assert len(band.freqs_hz) == 496
    np.testing.assert_array_equal(band.freqs_hz, ea.default_frequency_grid())


def test_kundt_noise_follows_seed(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["grid"] = {"f_min_hz": 100.0, "f_max_hz": 500.0, "step_hz": 10.0}

    def kundt(name, noise, *flags):
        cfg["kundt"] = {"noise_rel_std": noise, "noise_seed": 3}
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(cfg))
        assert run(["kundt", "--config", p, "--out", tmp_path / name, *flags]) == 0
        return (tmp_path / name / "kundt.csv").read_bytes()

    noisy = kundt("a", 0.01)
    assert kundt("b", 0.01) == noisy
    assert kundt("c", 0.01, "--seed", 4) != noisy
    assert kundt("quiet", 0.0) != noisy


def test_kundt_geometry_is_the_tube_simulated(tmp_path, onedof_config):
    # the curves of a given geometry are vkundt's, called with that geometry;
    # the grid passes the reference tube's 2792 Hz plane-wave limit
    geometry = {"delta_x_m": 0.05, "x1_m": 0.3, "length_m": 0.8, "diameter_m": 0.05}
    cfg = json.loads(onedof_config.read_text())
    cfg["kundt"] = {"geometry": geometry}
    cfg["grid"] = {"f_min_hz": 100.0, "f_max_hz": 3000.0, "step_hz": 50.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["kundt", "--config", p, "--out", tmp_path / "k"]) == 0
    got = np.loadtxt(tmp_path / "k" / "kundt.csv", delimiter=",", skiprows=1)

    _, driver, target, fb = cli._load(p)
    geom = ea.WaveguideGeometry(*geometry.values())
    freqs = got[:, 0]
    omega = 2.0 * np.pi * freqs
    curves = [
        ea.passive_impedance(driver)(1j * omega),
        ea.target_impedance(target)(1j * omega),
        ea.achieved_impedance(driver, driver, target, ea.FeedbackSpec(0.0, fb.omega_g), omega),
        ea.achieved_impedance(driver, driver, target, fb, omega),
    ]
    for column, z in zip(got[:, 1:].T, curves):
        meas = ea.simulate_two_mic(freqs, z, geom, driver.air)
        gamma = ea.recover_reflection(meas, geom, driver.air).gamma
        np.testing.assert_array_equal(column, 1.0 - np.abs(gamma) ** 2)


def test_kundt_refuses_a_grid_a_hair_off_half_wave_spacing(tmp_path, capsys, onedof_config):
    # 1e-4 Hz off the reference tube's 1715 Hz = c0 / (2 * delta_x), rounding
    # alone moves alpha by 3e-10: no file is written
    cfg = json.loads(onedof_config.read_text())
    cfg["grid"] = {"f_min_hz": 1715.0001, "f_max_hz": 1715.0001, "step_hz": 1.0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run(["kundt", "--config", p, "--out", tmp_path / "k"]) == 2
    err = capsys.readouterr().err
    assert "config error: kundt: two-microphone inversion singular at 1715.0001 Hz" in err
    assert not (tmp_path / "k").exists()


def test_simulate_command(tmp_path, onedof_config):
    cfg = json.loads(onedof_config.read_text())
    cfg["simulate"] = {
        "fs_hz": 50_000.0,
        "latency": 0,
        "duration_s": 0.3,
        "transient_s": 0.15,
        "freqs_hz": [400.0],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "s"
    assert run(["simulate", "--config", p, "--out", out]) == 0
    assert (out / "timeseries_400hz.csv").exists()
    rows = (out / "measured_impedance.csv").read_text().splitlines()
    assert rows[0] == "freq_hz,re_z,im_z"
    f, re, im = (float(x) for x in rows[1].split(","))
    assert f == 400.0
    # matched at the target resonance
    assert abs(complex(re, im) / 411.6 - 1.0) < 1e-2


def test_current_source_command(capsys):
    code = run(
        ["current-source", "--r1", 92e3, "--r2", 92e3, "--r3", 1.1e3, "--r4", 1.1e3, "--r5", 1.2]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert float(lines["transconductance_a_per_v"]) == pytest.approx(9.9745e-3, rel=1e-4)
    assert float(lines["leakage_a_per_v"]) == pytest.approx(-10.7411e-6, rel=1e-4)


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency: neither the package nor the CLI
    # may load any scipy module (scipy.signal included) at import time, nor
    # numpy.random, which only montecarlo and a noisy kundt draw from (it
    # adds ~6 ms and ~6 MB of RSS to every cold process)
    src = str(Path(ea.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import eabsorb\n"
        "after_package = loaded()\n"
        "import eabsorb.cli\n"
        "print(json.dumps([after_package, loaded(), 'numpy.random' in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [[], [], False]


def test_design_leaves_numpy_polynomial_out(tmp_path):
    # the bilinear transform works on coefficient arrays: a cold design never
    # loads numpy.polynomial (~1.9 ms of import)
    src = str(Path(ea.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config = FIXTURES / "table1_2dof.json"
    code = (
        "import sys\n"
        "from eabsorb.cli import main\n"
        f"assert main(['design', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.polynomial' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines()[-1] == "False"
