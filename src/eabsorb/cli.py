"""Command-line front-end: reproducible absorber experiments from JSON configs.

Verbs: design, montecarlo, identify, kundt, simulate, current-source.
Every command is deterministic given its config (seeds included), so reruns
produce byte-identical outputs.  Exit codes: 0 success, 2 config error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, dsp, identify, model as model_mod, synthesis, vkundt
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
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    return cfg


def dump_config(cfg: dict) -> str:
    """Canonical serialization; parse -> dump -> parse is the identity."""
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _driver_from_config(cfg: dict) -> model_mod.DriverModel:
    d = cfg.get("driver")
    if d is None or d == {"reference": True}:
        return model_mod.table_reference_model()
    try:
        return model_mod.DriverModel.from_dict(d)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid driver block: {exc}") from exc


def _specs_from_config(cfg: dict, air) -> tuple[synthesis.TargetSpec, synthesis.FeedbackSpec]:
    try:
        fbk = cfg.get("feedback", {"kg": 0.0, "fg_hz": 500.0})
        return synthesis.specs_from_dict({**fbk, "resonators": cfg["target"]["resonators"]}, air)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid target/feedback block: {exc}") from exc


def _grid_from_config(cfg: dict) -> np.ndarray:
    g = cfg.get("grid")
    if g is None:
        return analysis.default_frequency_grid()
    try:
        grid = np.arange(
            float(g["f_min_hz"]), float(g["f_max_hz"]) + 1e-9, float(g["step_hz"])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid grid block: {exc}") from exc
    if grid.size == 0:
        raise ConfigError("frequency grid is empty")
    return grid


def _estimates_from_config(cfg: dict, driver) -> analysis.ParameterEstimates:
    factors = cfg.get("estimate_factors", {})
    allowed = {"rss", "omega0", "qms", "pressure_factor", "csb"}
    bad = set(factors) - allowed
    if bad:
        raise ConfigError(f"unknown estimate factors: {sorted(bad)}")
    return analysis.ParameterEstimates.scaled(driver, **{k: float(v) for k, v in factors.items()})


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text)


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")


# -- commands -----------------------------------------------------------------


def cmd_design(args) -> int:
    cfg = load_config(args.config)
    driver = _driver_from_config(cfg)
    target, fb = _specs_from_config(cfg, driver.air)
    pair = synthesis.synthesize_controller(driver, target, fb)
    report = synthesis.stability_report(driver, fb)
    fs = float(cfg.get("simulate", {}).get("fs_hz", 50_000.0))
    h1_sos = dsp.bilinear_discretize(pair.h1, fs)
    h2_sos = dsp.bilinear_discretize(pair.h2, fs)

    out = _out_dir(args)
    controller = {
        "h1": {"num": list(pair.h1.num), "den": list(pair.h1.den)},
        "h2": {"num": list(pair.h2.num), "den": list(pair.h2.den)},
        "specs": synthesis.specs_to_dict(target, fb, driver.air),
    }
    _write(out / "controller.json", json.dumps(controller, indent=2) + "\n")
    _write(out / "h1_sos.json", h1_sos.to_json() + "\n")
    _write(out / "h2_sos.json", h2_sos.to_json() + "\n")
    _write(out / "stability.json", report.to_json() + "\n")
    print(f"design written to {out} (stable={report.stable})")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    cfg = load_config(args.config)
    driver = _driver_from_config(cfg)
    target, fb = _specs_from_config(cfg, driver.air)
    mc = cfg.get("montecarlo")
    if mc is None:
        raise ConfigError("config lacks a montecarlo block")
    try:
        mc_cfg = analysis.MonteCarloConfig(
            n_draws=int(mc["n_draws"]),
            rel_std=float(mc["rel_std"]),
            seed=int(args.seed if args.seed is not None else mc["seed"]),
            freqs_hz=_grid_from_config(cfg),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid montecarlo block: {exc}") from exc
    band = analysis.monte_carlo_absorption(driver, target, fb, mc_cfg)
    out = _out_dir(args)
    band.to_csv(out / "montecarlo.csv")
    print(f"montecarlo quartiles written to {out / 'montecarlo.csv'}")
    return EXIT_OK


def cmd_identify(args) -> int:
    air = model_mod.DEFAULT_AIR
    try:
        passive = identify.MeasuredSpectrum.from_csv(args.passive, air)
        front = identify.MeasuredSpectrum.from_csv(args.front, air)
        rear = identify.MeasuredSpectrum.from_csv(args.rear, air)
    except OSError as exc:
        print(f"error: cannot read spectrum CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"malformed spectrum CSV: {exc}") from exc
    k1 = identify.ProbeGain(args.k1, "front")
    k2 = identify.ProbeGain(args.k2, "rear")
    fitted, diagnostics = identify.identify_model(passive, front, k1, rear, k2, air)
    out = _out_dir(args)
    payload = dict(fitted.to_dict())
    payload["diagnostics"] = diagnostics
    _write(out / "identified_model.json", json.dumps(payload, indent=2) + "\n")
    print(f"identified model written to {out / 'identified_model.json'}")
    return EXIT_OK


def cmd_kundt(args) -> int:
    cfg = load_config(args.config)
    driver = _driver_from_config(cfg)
    target, fb = _specs_from_config(cfg, driver.air)
    kcfg = cfg.get("kundt", {})
    geom = (
        vkundt.WaveguideGeometry.from_dict(kcfg["geometry"])
        if "geometry" in kcfg
        else vkundt.REFERENCE_GEOMETRY
    )
    noise = float(kcfg.get("noise_rel_std", 0.0))
    noise_seed = int(args.seed if args.seed is not None else kcfg.get("noise_seed", 0))
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
    _write_csv(out / "kundt.csv", header, columns)
    print(f"virtual tube absorption curves written to {out / 'kundt.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    driver = _driver_from_config(cfg)
    target, fb = _specs_from_config(cfg, driver.air)
    sim = cfg.get("simulate", {})
    try:
        loop = dsp.LoopConfig(
            fs=float(sim.get("fs_hz", 50_000.0)),
            latency=int(sim.get("latency", 1)),
            hold=sim.get("hold", "centered"),
            duration=float(sim.get("duration_s", 1.0)),
            transient=float(sim.get("transient_s", 0.5)),
        )
        freqs = [float(f) for f in sim.get("freqs_hz", [205.5])]
        amplitude = float(sim.get("amplitude_pa", 1.0))
    except (TypeError, ValueError, InvalidParameterError) as exc:
        raise ConfigError(f"invalid simulate block: {exc}") from exc

    pair = synthesis.synthesize_controller(driver, target, fb)
    h1 = dsp.bilinear_discretize(pair.h1, loop.fs)
    h2 = dsp.bilinear_discretize(pair.h2, loop.fs)
    out = _out_dir(args)
    re_z, im_z = [], []
    for f_hz in freqs:
        result = dsp.closed_loop_sim(driver, (h1, h2), loop, dsp.sine_excitation(f_hz, amplitude))
        result.to_csv(out / f"timeseries_{f_hz:g}hz.csv")
        z = result.measured_impedance(f_hz)
        re_z.append(z.real)
        im_z.append(z.imag)
    _write_csv(
        out / "measured_impedance.csv",
        ["freq_hz", "re_z", "im_z"],
        [np.asarray(freqs), np.asarray(re_z), np.asarray(im_z)],
    )
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidParameterError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EabsorbError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
