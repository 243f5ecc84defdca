import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eabsorb as ea
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
    for name in ("controller.json", "h1_sos.json", "h2_sos.json"):
        assert (out / name).exists()
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
    "seed-negative": ("montecarlo", ("montecarlo", "seed"), -1, "seed"),
    "seed-not-integer": ("montecarlo", ("montecarlo", "seed"), 1.5, "seed"),
    "seed-string": ("montecarlo", ("montecarlo", "seed"), "7", "seed"),
    "n-draws-not-integer": ("montecarlo", ("montecarlo", "n_draws"), 300.9, "montecarlo.n_draws"),
    "latency-not-integer": ("simulate", ("simulate", "latency"), 1.7, "simulate.latency"),
    "estimate-factor-string": ("kundt", ("estimate_factors", "rss"), "x", "estimate_factors.rss"),
    "amplitude-nan": ("simulate", ("simulate", "amplitude_pa"), "nan", "simulate.amplitude_pa"),
}


@pytest.mark.parametrize("case", list(BAD_VALUES), ids=list(BAD_VALUES))
def test_bad_config_values_exit_2(tmp_path, capsys, case):
    # each bad value is a config error naming its key, never a traceback
    verb, (block, key), value, name = BAD_VALUES[case]
    cfg = json.loads((FIXTURES / "table1_1dof.json").read_text())
    if value is None:
        del cfg[block][key]
    else:
        cfg.setdefault(block, {})[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert run([verb, "--config", p, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name in err


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


def test_identify_command(tmp_path, ref_model):
    k1, k2 = ea.default_probe_gains(ref_model)
    air = ref_model.air
    ea.passive_spectrum(ref_model).to_csv(tmp_path / "passive.csv", air)
    ea.probe_front_spectrum(ref_model, k1).to_csv(tmp_path / "front.csv", air)
    ea.probe_rear_spectrum(ref_model, k2).to_csv(tmp_path / "rear.csv", air)
    out = tmp_path / "id"
    code = run(
        [
            "identify",
            "--passive", tmp_path / "passive.csv",
            "--front", tmp_path / "front.csv",
            "--rear", tmp_path / "rear.csv",
            "--k1", k1.k,
            "--k2", k2.k,
            "--out", out,
        ]
    )
    assert code == 0
    got = json.loads((out / "identified_model.json").read_text())
    assert got["f0_hz"] == pytest.approx(205.5, rel=1e-9)
    assert got["qms"] == pytest.approx(5.466, rel=1e-9)
    assert got["f_pa_per_a"] == pytest.approx(1084.0, rel=1e-9)
    assert got["csb_m_per_pa"] == pytest.approx(1.808e-6, rel=1e-9)
    assert "diagnostics" in got


def test_identify_missing_file_is_io_error(tmp_path):
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


def test_config_round_trip(onedof_config):
    from eabsorb.cli import dump_config, load_config

    cfg = load_config(onedof_config)
    assert json.loads(dump_config(cfg)) == cfg


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency: neither the package nor the CLI
    # may load any scipy module (scipy.signal included) at import time
    src = str(Path(ea.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import eabsorb\n"
        "after_package = loaded()\n"
        "import eabsorb.cli\n"
        "print(json.dumps([after_package, loaded()]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [[], []]
