"""Command-line front-end: reproducible absorber experiments from JSON configs.

Verbs: design, montecarlo, identify, kundt, simulate, current-source.
Every command is deterministic given its config (seeds included), so reruns
produce byte-identical outputs.  Exit codes: 0 success, 2 config error,
3 numerical failure or out of memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, dsp, identify, model as model_mod, synthesis, vkundt
from ._csvio import write_columns
from .errors import EabsorbError, InvalidParameterError

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


# -- config handling ----------------------------------------------------------


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    return cfg


def _block(cfg: dict, name: str) -> dict:
    """The optional config object `name`: {} when absent (or null), else a
    ConfigError naming the block unless it is a JSON object."""
    block = cfg.get(name)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {type(block).__name__}")
    return block


_DRIVER_KEYS = ("rss", "f0_hz", "qms", "f_pa_per_a", "csb_m_per_pa", "rho0", "c0")


def _driver_from_config(cfg: dict) -> model_mod.DriverModel:
    d = cfg.get("driver")
    if d is None or d == {"reference": True}:
        return model_mod.table_reference_model()
    return model_mod.DriverModel.from_dict(_numbers(d, "driver", _DRIVER_KEYS))


def _specs_from_config(cfg: dict, air) -> tuple[synthesis.TargetSpec, synthesis.FeedbackSpec]:
    fbk = cfg.get("feedback", {"kg": 0.0, "fg_hz": 500.0})
    kg, fg_hz = _numbers(fbk, "feedback", ("kg", "fg_hz"), allow_zero=("kg",)).values()
    resonators = _block(cfg, "target").get("resonators")
    if not isinstance(resonators, list) or not resonators:
        raise ConfigError("target.resonators must be a non-empty list")
    rc = air.characteristic_impedance
    keys = ("rst_norm", "f_hz", "q")
    rows = [_numbers(e, f"target.resonators[{i}]", keys) for i, e in enumerate(resonators)]
    target = synthesis.TargetSpec.multi([(r["rst_norm"] * rc, r["f_hz"], r["q"]) for r in rows])
    return target, synthesis.FeedbackSpec.from_hz(kg, fg_hz)


def _specs_to_dict(target, fb, air) -> dict:
    """The `"specs"` block of controller.json: the target and feedback in
    the config's own units."""
    rc = air.characteristic_impedance
    return {
        "resonators": [
            {"rst_norm": r.rst / rc, "f_hz": r.omega_t / (2.0 * math.pi), "q": r.qt}
            for r in target.resonators
        ],
        "kg": fb.kg,
        "fg_hz": fb.omega_g / (2.0 * math.pi),
    }


def _load(path):
    """The config at `path`, with the driver, target and feedback it
    describes: what design, montecarlo, kundt and simulate all start from."""
    cfg = load_config(path)
    driver = _driver_from_config(cfg)
    target, fb = _specs_from_config(cfg, driver.air)
    return cfg, driver, target, fb


def _sample_rate(cfg: dict) -> float:
    """simulate.fs_hz, the one simulate key that design reads too."""
    return _number(_block(cfg, "simulate").get("fs_hz", 50_000.0), "simulate.fs_hz")


def _number(value, key: str, allow_zero: bool = False) -> float:
    """`value`, a JSON number, as a finite float that is positive (or zero
    with allow_zero), else a ConfigError naming the config key; booleans,
    strings and integers beyond float range are refused."""
    x = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            pass
    if not (math.isfinite(x) and (x > 0.0 or (allow_zero and x == 0.0))):
        bound = "a non-negative" if allow_zero else "a positive"
        raise ConfigError(f"{key} must be {bound} number, got {value!r}")
    return x


def _integer(value, key: str, allow_zero: bool = False) -> int:
    """`value` as an int that is positive (or zero with allow_zero), else a
    ConfigError naming the config key; floats, integral or not, are refused."""
    if not isinstance(value, int) or isinstance(value, bool) or value < (0 if allow_zero else 1):
        bound = "a non-negative" if allow_zero else "a positive"
        raise ConfigError(f"{key} must be {bound} integer, got {value!r}")
    return value


def _field(block: dict, name: str, key: str):
    """block[key], else a ConfigError saying `name.key` is missing."""
    if key not in block:
        raise ConfigError(f"{name}.{key} is missing")
    return block[key]


def _numbers(block, name: str, keys, allow_zero=()) -> dict:
    """The numbers `keys` of the config object `name`, each checked by
    `_number` under its full key (`driver.rss`, `target.resonators[0].q`),
    so that errors name the config key rather than a field of the type
    built from it."""
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be an object, got {type(block).__name__}")
    return {
        key: _number(_field(block, name, key), f"{name}.{key}", allow_zero=key in allow_zero)
        for key in keys
    }


def _grid_from_config(cfg: dict) -> np.ndarray:
    g = _block(cfg, "grid")
    if not g:
        return analysis.default_frequency_grid()
    f_min, f_max, step = _numbers(g, "grid", ("f_min_hz", "f_max_hz", "step_hz")).values()
    grid = np.arange(f_min, f_max + 1e-9, step)
    if grid.size == 0:
        raise ConfigError("frequency grid is empty")
    return grid


def _estimates_from_config(cfg: dict, driver) -> model_mod.DriverModel:
    factors = _block(cfg, "estimate_factors")
    allowed = {"rss", "omega0", "qms", "pressure_factor", "csb"}
    bad = set(factors) - allowed
    if bad:
        raise ConfigError(f"unknown estimate factors: {sorted(bad)}")
    scales = {k: _number(v, f"estimate_factors.{k}") for k, v in factors.items()}
    return driver.scaled(**scales)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -----------------------------------------------------------------


def cmd_design(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    pair = synthesis.synthesize_controller(driver, target, fb)
    report = synthesis.stability_report(driver, fb)
    fs = _sample_rate(cfg)
    h1_sos = dsp.bilinear_discretize(pair.h1, fs)
    h2_sos = dsp.bilinear_discretize(pair.h2, fs)

    out = _out_dir(args)
    controller = {
        "h1": {"num": list(pair.h1.num), "den": list(pair.h1.den)},
        "h2": {"num": list(pair.h2.num), "den": list(pair.h2.den)},
        "specs": _specs_to_dict(target, fb, driver.air),
    }
    (out / "controller.json").write_text(json.dumps(controller, indent=2) + "\n")
    (out / "h1_sos.json").write_text(h1_sos.to_json() + "\n")
    (out / "h2_sos.json").write_text(h2_sos.to_json() + "\n")
    (out / "stability.json").write_text(report.to_json() + "\n")
    print(f"design written to {out} (stable={report.stable})")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    mc = _block(cfg, "montecarlo")
    seed = args.seed if args.seed is not None else _field(mc, "montecarlo", "seed")
    mc_cfg = analysis.MonteCarloConfig(
        n_draws=_integer(_field(mc, "montecarlo", "n_draws"), "montecarlo.n_draws"),
        rel_std=_number(_field(mc, "montecarlo", "rel_std"), "montecarlo.rel_std", allow_zero=True),
        seed=_integer(seed, "montecarlo.seed", allow_zero=True),
        freqs_hz=_grid_from_config(cfg),
    )
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
        except OSError as exc:
            print(f"error: cannot read spectrum CSV: {exc}", file=sys.stderr)
            return EXIT_IO
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"malformed spectrum CSV {path}: {exc}") from exc
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
    kcfg = _block(cfg, "kundt")
    geom = vkundt.REFERENCE_GEOMETRY
    if "geometry" in kcfg:
        keys = ("delta_x_m", "x1_m", "length_m", "diameter_m")
        lengths = _numbers(kcfg["geometry"], "kundt.geometry", keys).values()
        try:
            geom = vkundt.WaveguideGeometry(*lengths)
        except InvalidParameterError as exc:
            raise ConfigError(f"invalid kundt.geometry: {exc}") from exc
    noise = _number(kcfg.get("noise_rel_std", 0.0), "kundt.noise_rel_std", allow_zero=True)
    noise_seed = args.seed if args.seed is not None else kcfg.get("noise_seed", 0)
    _integer(noise_seed, "kundt.noise_seed", allow_zero=True)
    freqs = _grid_from_config(cfg)
    estimates = _estimates_from_config(cfg, driver)
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
        meas = vkundt.simulate_two_mic(freqs, z, geom, air)
        if noise > 0.0:
            meas = vkundt.add_measurement_noise(meas, noise, noise_seed)
        rec = vkundt.recover_reflection(meas, geom, air)
        alpha = 1.0 - np.abs(rec.gamma) ** 2
        header.append(f"alpha_{name}")
        columns.append(alpha)
    out = _out_dir(args)
    write_columns(out / "kundt.csv", header, columns)
    print(f"virtual tube absorption curves written to {out / 'kundt.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, driver, target, fb = _load(args.config)
    sim = _block(cfg, "simulate")
    hold = sim.get("hold", "centered")
    if hold not in ("centered", "causal"):
        raise ConfigError(f"simulate.hold must be 'centered' or 'causal', got {hold!r}")
    duration = _number(sim.get("duration_s", 1.0), "simulate.duration_s")
    transient = _number(sim.get("transient_s", 0.5), "simulate.transient_s", allow_zero=True)
    if not transient < duration:
        raise ConfigError(
            "simulate.transient_s must be below simulate.duration_s, "
            f"got {transient!r} >= {duration!r}"
        )
    latency = _integer(sim.get("latency", 1), "simulate.latency", allow_zero=True)
    if latency > dsp.MAX_LATENCY:
        raise ConfigError(f"simulate.latency must be at most {dsp.MAX_LATENCY}, got {latency!r}")
    loop = dsp.LoopConfig(
        fs=_sample_rate(cfg),
        latency=latency,
        hold=hold,
        duration=duration,
        transient=transient,
    )
    freqs = sim.get("freqs_hz", [205.5])
    if not isinstance(freqs, list) or not freqs:
        raise ConfigError("simulate.freqs_hz must be a non-empty list")
    freqs = [_number(f, "simulate.freqs_hz") for f in freqs]
    amplitude = _number(sim.get("amplitude_pa", 1.0), "simulate.amplitude_pa")

    pair = synthesis.synthesize_controller(driver, target, fb)
    h1 = dsp.bilinear_discretize(pair.h1, loop.fs)
    h2 = dsp.bilinear_discretize(pair.h2, loop.fs)
    out = _out_dir(args)
    impedances = []
    for f_hz in freqs:
        result = dsp.closed_loop_sim(driver, (h1, h2), loop, f_hz, amplitude)
        result.to_csv(out / f"timeseries_{f_hz:g}hz.csv")
        impedances.append(result.measured_impedance(f_hz))
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
    except (ConfigError, InvalidParameterError) as exc:
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
