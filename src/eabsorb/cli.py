"""Command-line front-end: reproducible absorber experiments from JSON configs.

Verbs: design, montecarlo, identify, kundt, simulate, current-source.
Every command is deterministic given its config (seeds included), so reruns
produce byte-identical outputs.  Exit codes: 0 success, 2 config error,
3 numerical failure or out of memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, dsp, identify, model as model_mod, synthesis, vkundt
from ._csvio import write_columns
from .errors import (
    DiscretizationError,
    EabsorbError,
    InvalidParameterError,
    check_count,
    check_number,
)

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


# -- config handling ----------------------------------------------------------


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameterError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int's digit limit
        raise InvalidParameterError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidParameterError(f"config must be a JSON object, got {type(cfg).__name__}")
    if cfg.get("version") != CONFIG_VERSION:
        raise InvalidParameterError(f"config version must be {CONFIG_VERSION}")
    _read(cfg, "config")  # refuses a top-level key that names no block
    return cfg


_REQUIRED = object()  # the default of a key that must be given

# The keys of each config object: key -> (check, allow_zero, default).  The
# check, errors.check_number or errors.check_count (the ones every library
# type makes), gets the value, its full key (`simulate.latency`) and
# allow_zero; None leaves a list, string or object to the code using it.
_TABLES = {
    "driver": dict.fromkeys(
        ("rss", "f0_hz", "qms", "f_pa_per_a", "csb_m_per_pa", "rho0", "c0"),
        (check_number, False, _REQUIRED),
    ),
    "target": {"resonators": (None, False, _REQUIRED)},
    "target.resonators": dict.fromkeys(("rst_norm", "f_hz", "q"), (check_number, False, _REQUIRED)),
    "feedback": {"kg": (check_number, True, _REQUIRED), "fg_hz": (check_number, False, _REQUIRED)},
    "grid": dict.fromkeys(("f_min_hz", "f_max_hz", "step_hz"), (check_number, False, _REQUIRED)),
    "montecarlo": {
        "n_draws": (check_count, False, _REQUIRED),
        "rel_std": (check_number, True, _REQUIRED),
        "seed": (check_count, True, _REQUIRED),
    },
    "kundt": {
        "geometry": (None, False, None),
        "noise_rel_std": (check_number, True, 0.0),
        "noise_seed": (check_count, True, 0),
    },
    "kundt.geometry": dict.fromkeys(
        ("delta_x_m", "x1_m", "length_m", "diameter_m"), (check_number, False, _REQUIRED)
    ),
    "simulate": {
        "fs_hz": (check_number, False, dsp.LoopConfig.fs),
        "latency": (check_count, True, dsp.LoopConfig.latency),
        "hold": (None, False, dsp.LoopConfig.hold),
        "duration_s": (check_number, False, dsp.LoopConfig.duration),
        "transient_s": (check_number, True, dsp.LoopConfig.transient),
        "freqs_hz": (None, False, [205.5]),
        "amplitude_pa": (check_number, False, 1.0),
    },
    "estimate_factors": dict.fromkeys(
        ("rss", "omega0", "qms", "pressure_factor", "csb"), (check_number, False, 1.0)
    ),
}
# the top level: the version, which load_config checks, and the eight blocks
_TABLES["config"] = dict.fromkeys(
    ["version", *(block for block in _TABLES if "." not in block)], (None, False, None)
)


def _read(value, name: str, **flags) -> dict:
    """The config object `name` (absent or null reads as {}) by the table of
    `name` without its list index: each key checked under `name.key`, else
    its default.  A key outside the table or a missing required key is an
    InvalidParameterError; `flags` that are not None replace the config's
    values."""
    if value is None:
        value = {}
    if not isinstance(value, dict):
        raise InvalidParameterError(f"{name} must be an object, got {type(value).__name__}")
    entries = _TABLES[name.split("[")[0]]
    unknown = sorted(set(value) - set(entries))
    if unknown:
        raise InvalidParameterError(f"unknown {name} keys: {unknown}")
    value = {**value, **{key: x for key, x in flags.items() if x is not None}}
    read = {}
    for key, (check, allow_zero, default) in entries.items():
        if key not in value and default is _REQUIRED:
            raise InvalidParameterError(f"{name}.{key} is missing")
        x = value.get(key, default)
        read[key] = x if check is None else check(x, f"{name}.{key}", allow_zero)
    return read


@contextlib.contextmanager
def _block(name: str):
    """Names the config object `name` in a library refusal of a value built
    from it: an InvalidParameterError is re-raised as "name: message".  The
    values are read (`_read`) outside, as those messages name their key."""
    try:
        yield
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{name}: {exc}") from exc


def _driver_from_config(cfg: dict) -> model_mod.DriverModel:
    d = cfg.get("driver")
    if d is None or d == {"reference": True}:
        return model_mod.table_reference_model()
    d = _read(d, "driver")
    with _block("driver"):
        return model_mod.DriverModel.from_dict(d)


def _specs_from_config(cfg: dict, air) -> tuple[synthesis.TargetSpec, synthesis.FeedbackSpec]:
    kg, fg_hz = _read(cfg.get("feedback"), "feedback").values()
    resonators = _read(cfg.get("target"), "target")["resonators"]
    if not isinstance(resonators, list) or not resonators:
        raise InvalidParameterError("target.resonators must be a non-empty list")
    rc = air.characteristic_impedance
    rows = [_read(e, f"target.resonators[{i}]").values() for i, e in enumerate(resonators)]
    with _block("target"):
        target = synthesis.TargetSpec.multi(
            [(rst_norm * rc, f_hz, q) for rst_norm, f_hz, q in rows]
        )
    with _block("feedback"):
        return target, synthesis.FeedbackSpec.from_hz(kg, fg_hz)


def _load(path):
    """The config at `path`, with the driver, target and feedback it
    describes: what design, montecarlo, kundt and simulate all start from."""
    cfg = load_config(path)
    driver = _driver_from_config(cfg)
    target, fb = _specs_from_config(cfg, driver.air)
    return cfg, driver, target, fb


def _grid_from_config(cfg: dict) -> np.ndarray:
    if cfg.get("grid") is None:
        return analysis.default_frequency_grid()
    f_min, f_max, step = _read(cfg["grid"], "grid").values()
    try:
        grid = np.arange(f_min, f_max + 1e-9, step)
    except ValueError as exc:  # numpy's "Maximum allowed size exceeded"
        raise MemoryError(f"grid.step_hz {step!r} gives more grid points than numpy can index") from exc
    if grid.size == 0:
        raise InvalidParameterError(f"grid is empty: f_max_hz {f_max!r} < f_min_hz {f_min!r}")
    return grid


def _realize(cfg: dict, driver, target, fb):
    """The `simulate` block of `cfg`, read and checked, its loop, and the
    controller pair synthesized and discretized at the loop's rate: what
    design and simulate both start from.  A filter that is unstable once
    discretized is a DiscretizationError."""
    sim = _read(cfg.get("simulate"), "simulate")
    fs, latency, hold, duration, transient, _, _ = sim.values()
    with _block("simulate"):
        loop = dsp.LoopConfig(
            fs=fs, latency=latency, hold=hold, duration=duration, transient=transient
        )
    pair = synthesis.synthesize_controller(driver, target, fb)
    cascades = tuple(dsp.bilinear_discretize(h, loop.fs) for h in (pair.h1, pair.h2))
    for name, cascade in zip(("h1", "h2"), cascades):
        if not cascade.is_stable:
            raise DiscretizationError(f"{name} is unstable once discretized at {loop.fs!r} Hz")
    return sim, loop, pair, cascades


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -----------------------------------------------------------------


def cmd_design(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    _, _, pair, (h1_sos, h2_sos) = _realize(cfg, driver, target, fb)
    report = synthesis.stability_report(driver, fb)
    out = _out_dir(args)
    controller = {
        "h1": {"num": list(pair.h1.num), "den": list(pair.h1.den)},
        "h2": {"num": list(pair.h2.num), "den": list(pair.h2.den)},
        "specs": {"resonators": cfg["target"]["resonators"], **cfg["feedback"]},
    }
    (out / "controller.json").write_text(json.dumps(controller, indent=2) + "\n")
    (out / "h1_sos.json").write_text(h1_sos.to_json() + "\n")
    (out / "h2_sos.json").write_text(h2_sos.to_json() + "\n")
    (out / "stability.json").write_text(report.to_json() + "\n")
    print(f"design written to {out} (stable={report.stable})")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    mc = _read(cfg.get("montecarlo"), "montecarlo", seed=args.seed)
    freqs = _grid_from_config(cfg)
    with _block("montecarlo"):
        mc_cfg = analysis.MonteCarloConfig(**mc, freqs_hz=freqs)
    band = analysis.monte_carlo_absorption(driver, target, fb, mc_cfg)
    out = _out_dir(args)
    band.to_csv(out / "montecarlo.csv")
    print(f"montecarlo quartiles written to {out / 'montecarlo.csv'}")
    return EXIT_OK


def cmd_identify(args) -> int:
    air = model_mod.DEFAULT_AIR
    spectra = []
    for path in (args.passive, args.front, args.rear):
        try:
            spectra.append(identify.MeasuredSpectrum.from_csv(path, air))
        except (ValueError, IndexError) as exc:
            raise InvalidParameterError(f"malformed spectrum CSV {path}: {exc}") from exc
    passive, front, rear = spectra
    k1 = identify.ProbeGain(args.k1)
    k2 = identify.ProbeGain(args.k2)
    fitted, diagnostics = identify.identify_model(passive, front, k1, rear, k2, air)
    out = _out_dir(args)
    payload = dict(fitted.to_dict())
    payload["diagnostics"] = diagnostics
    (out / "identified_model.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"identified model written to {out / 'identified_model.json'}")
    return EXIT_OK


def cmd_kundt(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    geometry, noise, noise_seed = _read(cfg.get("kundt"), "kundt", noise_seed=args.seed).values()
    geom = vkundt.REFERENCE_GEOMETRY
    if geometry is not None:
        values = _read(geometry, "kundt.geometry").values()
        with _block("kundt.geometry"):
            geom = vkundt.WaveguideGeometry(*values)
    freqs = _grid_from_config(cfg)
    factors = _read(cfg.get("estimate_factors"), "estimate_factors")
    with _block("estimate_factors"):
        estimates = driver.scaled(**factors)
    omega = 2.0 * np.pi * freqs
    air = driver.air

    fb_off = synthesis.FeedbackSpec(0.0, fb.omega_g)
    curves = {
        "passive": model_mod.passive_impedance(driver)(1j * omega),
        "target": synthesis.target_impedance(target)(1j * omega),
        "feedforward": analysis.achieved_impedance(driver, estimates, target, fb_off, omega),
        "mixed": analysis.achieved_impedance(driver, estimates, target, fb, omega),
    }
    columns = [freqs]
    header = ["freq_hz"]
    for name, z in curves.items():
        with _block("kundt"):  # a grid past the tube's plane-wave limit
            meas = vkundt.simulate_two_mic(freqs, z, geom, air)
        if noise > 0.0:  # noise 0 adds nothing; skipping it skips numpy.random's import
            meas = vkundt.add_measurement_noise(meas, noise, noise_seed)
        rec = vkundt.recover_reflection(meas, geom, air)
        if rec.singular.any():  # e.g. a spacing of half a wavelength: no alpha there
            f_hz = float(freqs[rec.singular][0])
            raise InvalidParameterError(f"kundt: two-microphone inversion singular at {f_hz!r} Hz")
        alpha = 1.0 - np.abs(rec.gamma) ** 2
        header.append(f"alpha_{name}")
        columns.append(alpha)
    out = _out_dir(args)
    write_columns(out / "kundt.csv", header, columns)
    print(f"virtual tube absorption curves written to {out / 'kundt.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    sim, loop, _, cascades = _realize(cfg, driver, target, fb)
    freqs, amplitude = sim["freqs_hz"], sim["amplitude_pa"]
    if not isinstance(freqs, list) or not freqs:
        raise InvalidParameterError("simulate.freqs_hz must be a non-empty list")
    freqs = [check_number(f, "simulate.freqs_hz") for f in freqs]
    series = {f"timeseries_{f_hz:g}hz.csv": f_hz for f_hz in freqs}  # :g keeps 6 digits
    if len(series) < len(freqs):
        raise InvalidParameterError(
            f"simulate.freqs_hz must differ to 6 significant digits, got {freqs!r}"
        )
    with _block("simulate"):  # every run's grid is checked before any file is written
        for f_hz in freqs:
            loop.time_grid(f_hz)
    out = _out_dir(args)
    impedances = []
    for name, f_hz in series.items():
        result = dsp.closed_loop_sim(driver, cascades, loop, f_hz, amplitude)
        result.to_csv(out / name)
        impedances.append(result.measured_impedance())
    z = np.array(impedances, dtype=complex)
    columns = [freqs, z.real, z.imag]
    write_columns(out / "measured_impedance.csv", ["freq_hz", "re_z", "im_z"], columns)
    print(f"simulation outputs written to {out}")
    return EXIT_OK


def cmd_current_source(args) -> int:
    design = model_mod.CurrentSourceDesign(
        r1=args.r1, r2=args.r2, r3=args.r3, r4=args.r4, r5=args.r5
    )
    transconductance, leakage = model_mod.current_source_gains(design)
    print(f"transconductance_a_per_v: {transconductance!r}")
    print(f"leakage_a_per_v: {leakage!r}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eabsorb",
        description="Design and simulation toolkit for electroacoustic absorbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")

    def seed(p):
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("design", help="synthesize controllers and stability report")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("montecarlo", help="quartile band under random model errors")
    p.add_argument("--config", required=True)
    common(p)
    seed(p)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("identify", help="recover plant parameters from spectra CSVs")
    p.add_argument("--passive", required=True, help="passive impedance CSV")
    p.add_argument("--front", required=True, help="front-probe impedance CSV")
    p.add_argument("--rear", required=True, help="rear-probe impedance CSV")
    p.add_argument("--k1", type=float, required=True, help="front probe gain (A/Pa)")
    p.add_argument("--k2", type=float, required=True, help="rear probe gain (A/Pa)")
    common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("kundt", help="virtual impedance-tube absorption curves")
    p.add_argument("--config", required=True)
    common(p)
    seed(p)
    p.set_defaults(func=cmd_kundt)

    p = sub.add_parser("simulate", help="closed-loop time-domain simulation")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("current-source", help="print current-source gains")
    for name in ("r1", "r2", "r3", "r4", "r5"):
        p.add_argument(f"--{name}", type=float, required=True, help=f"{name} (ohm)")
    p.set_defaults(func=cmd_current_source)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EabsorbError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
