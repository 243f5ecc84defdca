"""Output checks for the benchmark's ops, run outside the timed region.

Each check raises `CheckFailed` on a wrong answer.  The closed-form oracles
here are the benchmark's own: they rebuild impedances from the driver
parameters and the fixture's target block instead of calling the package
code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Tolerances, named after the acceptance criteria they come from where one
# applies (criterion 8: discrete realization, criterion 9: current source).
SOS_MAG_TOL = 1e-3
SOS_PHASE_TOL_DEG = 0.1
SOS_CHECK_FREQS = np.arange(10.0, 1000.0001, 5.0)
ALPHA_TOL = 1e-9
QUARTILE_TOL = 1e-9
REFERENCE_RTOL = 1e-6
IDENTIFY_RTOL = 1e-6
TRANSCONDUCTANCE = (9.97e-3, 5e-3)  # (value, relative tolerance)
LEAKAGE = (-10.7e-6, 1e-2)
ORACLE_FREQS = 4  # Monte Carlo frequencies checked per study


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Design:
    """One fixture config, parsed by the benchmark."""

    name: str
    driver: object  # eabsorb.model.DriverModel
    resonators: tuple  # (rst in Pa.s/m, f_hz, q) per branch
    kg: float
    fg_hz: float
    n_draws: int
    rel_std: float
    freqs_hz: np.ndarray

    @classmethod
    def load(cls, path: Path, model):
        cfg = json.loads(path.read_text())
        d = cfg.get("driver")
        if d is None or d == {"reference": True}:
            driver = model.table_reference_model()
        else:
            driver = model.DriverModel.from_dict(d)
        rc = driver.air.characteristic_impedance
        res = tuple(
            (r["rst_norm"] * rc, float(r["f_hz"]), float(r["q"]))
            for r in cfg["target"]["resonators"]
        )
        g = cfg["grid"]
        freqs = np.arange(float(g["f_min_hz"]), float(g["f_max_hz"]) + 1e-9, float(g["step_hz"]))
        fb, mc = cfg["feedback"], cfg["montecarlo"]
        return cls(path.stem.removeprefix("table1_"), driver, res, float(fb["kg"]),
                   float(fb["fg_hz"]), int(mc["n_draws"]), float(mc["rel_std"]), freqs)

    def target_spec(self, synthesis):
        return synthesis.TargetSpec.multi(self.resonators)

    def feedback_spec(self, synthesis):
        return synthesis.FeedbackSpec.from_hz(self.kg, self.fg_hz)


# -- closed-form oracles ------------------------------------------------------


def passive_z(driver, s):
    w0, q = driver.omega0, driver.qms
    return driver.rss * (s**2 + s * w0 / q + w0**2) / (s * w0 / q)


def target_z(design: Design, s):
    admittance = 0.0
    for rst, f_hz, q in design.resonators:
        wt = 2.0 * math.pi * f_hz
        admittance = admittance + (wt / (q * rst)) * s / (s**2 + s * wt / q + wt**2)
    return 1.0 / admittance


def feedback_g(design: Design, s, kg=None):
    kg = design.kg if kg is None else kg
    wg = 2.0 * math.pi * design.fg_hz
    return design.driver.air.characteristic_impedance * kg * wg / (s + wg)


def absorption(z, rc):
    return 1.0 - np.abs((z - rc) / (z + rc)) ** 2


def mismatch_absorption(design: Design, factors: np.ndarray, s) -> np.ndarray:
    """Absorption per draw (rows) and frequency (columns) under estimate
    factors (rss, omega0, qms, pressure factor, box compliance)."""
    drv = design.driver
    f = factors[:, :, None]
    rss, w0, q = drv.rss * f[:, 0], drv.omega0 * f[:, 1], drv.qms * f[:, 2]
    f_ratio, c_ratio = f[:, 3], f[:, 4]
    zst, g, zss = target_z(design, s), feedback_g(design, s), passive_z(drv, s)
    zss_hat = rss * (s**2 + s * w0 / q + w0**2) / (s * w0 / q)
    z = zst * (g * c_ratio + zss * f_ratio) / (g + zss_hat + zst * (f_ratio - 1.0))
    return absorption(z, drv.air.characteristic_impedance)


def quantile7(x: np.ndarray, p: float) -> np.ndarray:
    """Hyndman-Fan type 7 quantile along axis 0."""
    xs = np.sort(x, axis=0)
    h = (xs.shape[0] - 1) * p
    lo = math.floor(h)
    hi = min(lo + 1, xs.shape[0] - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


class MonteCarloOracle:
    """Recomputes Monte Carlo quartiles at a few seed-picked frequencies."""

    def __init__(self, analysis, seed: int):
        self.analysis = analysis
        self.seed = seed
        self._factors: dict = {}

    def factors(self, n_draws: int, rel_std: float) -> np.ndarray:
        key = (n_draws, rel_std)
        if key not in self._factors:
            self._factors[key] = np.array([
                self.analysis.draw_parameter_factors(self.seed, i, rel_std)
                for i in range(n_draws)
            ])
        return self._factors[key]

    def check(self, design: Design, freqs, q1, q3) -> None:
        freqs, q1, q3 = (np.asarray(a, dtype=float) for a in (freqs, q1, q3))
        require(freqs.shape == design.freqs_hz.shape and np.array_equal(freqs, design.freqs_hz),
                "Monte Carlo frequency grid differs from the config grid")
        picks = sorted(random.Random(self.seed).sample(range(freqs.size), ORACLE_FREQS))
        alpha = mismatch_absorption(
            design, self.factors(design.n_draws, design.rel_std), 2j * np.pi * freqs[picks]
        )
        err = max(np.max(np.abs(q1[picks] - quantile7(alpha, 0.25))),
                  np.max(np.abs(q3[picks] - quantile7(alpha, 0.75))))
        require(err <= QUARTILE_TOL, f"Monte Carlo quartiles off the oracle by {err:.3g}")


# -- output files -------------------------------------------------------------


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


def file_hashes(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def timeseries_summary(path: Path) -> dict:
    """Row count and steady-state RMS per column of a simulate time series."""
    header, data = read_csv(path)
    steady = data[data[:, 0] >= 0.5 * data[-1, 0]]
    return {
        "rows": int(data.shape[0]),
        "rms": {name: float(np.sqrt(np.mean(steady[:, k] ** 2)))
                for k, name in enumerate(header) if name != "t_s"},
    }


def close(value, ref, rtol) -> bool:
    return abs(complex(value) - complex(ref)) <= rtol * abs(complex(ref))


def check_design(out: Path, design: Design) -> None:
    stability = json.loads((out / "stability.json").read_text())
    require(stability.get("stable") is True, "design reports an unstable loop")
    controller = json.loads((out / "controller.json").read_text())
    s = 2j * np.pi * SOS_CHECK_FREQS
    for name in ("h1", "h2"):
        c = controller[name]
        hc = np.polyval(c["num"], s) / np.polyval(c["den"], s)
        sos = json.loads((out / f"{name}_sos.json").read_text())
        zi = np.exp(-2j * np.pi * SOS_CHECK_FREQS / sos["fs_hz"])
        hd = np.full(zi.shape, sos["gain"], dtype=complex)
        for sec in sos["sections"]:
            hd = hd * (sec["b0"] + sec["b1"] * zi + sec["b2"] * zi**2) / (
                1.0 + sec["a1"] * zi + sec["a2"] * zi**2)
        nonzero = np.abs(hc) > 0
        if not nonzero.any():
            require(np.all(hd == 0), f"{name}: zero filter has a nonzero realization")
            continue
        mag = np.max(np.abs(np.abs(hd[nonzero]) / np.abs(hc[nonzero]) - 1.0))
        phase = np.max(np.abs(np.angle(hd[nonzero] / hc[nonzero]))) * 180.0 / np.pi
        require(mag < SOS_MAG_TOL and phase < SOS_PHASE_TOL_DEG,
                f"{name}: SOS off the continuous filter by {mag:.3g} / {phase:.3g} deg")


def check_kundt(out: Path, design: Design) -> None:
    header, data = read_csv(out / "kundt.csv")
    freqs = data[:, 0]
    require(np.array_equal(freqs, design.freqs_hz), "kundt grid differs from the config grid")
    s = 2j * np.pi * freqs
    drv = design.driver
    zst, zss = target_z(design, s), passive_z(drv, s)
    # the fixtures carry no estimate factors: estimates equal the true
    # parameters, so Z_sa = Zst*(G + Zss)/(G + Zss) for either feedback gain
    g_on, g_off = feedback_g(design, s), feedback_g(design, s, kg=0.0)
    expected = {
        "alpha_passive": zss,
        "alpha_target": zst,
        "alpha_feedforward": zst * (g_off + zss) / (g_off + zss),
        "alpha_mixed": zst * (g_on + zss) / (g_on + zss),
    }
    require(header == ["freq_hz", *expected], f"unexpected kundt columns {header}")
    rc = drv.air.characteristic_impedance
    for k, (name, z) in enumerate(expected.items(), start=1):
        err = np.max(np.abs(data[:, k] - absorption(z, rc)))
        require(err <= ALPHA_TOL, f"{name} off 1-|Gamma|^2 by {err:.3g}")


def check_simulate(out: Path, reference: dict) -> None:
    header, data = read_csv(out / "measured_impedance.csv")
    require(header == ["freq_hz", "re_z", "im_z"] and data.shape == (1, 3),
            "unexpected measured_impedance.csv layout")
    ref_z = complex(*reference["z"])
    require(close(complex(data[0, 1], data[0, 2]), ref_z, REFERENCE_RTOL),
            f"simulated impedance {complex(data[0, 1], data[0, 2])} != reference {ref_z}")
    series = timeseries_summary(out / "timeseries_205.5hz.csv")
    ref = reference["timeseries"]
    require(series["rows"] == ref["rows"], "time series row count differs from the reference")
    for name, rms in ref["rms"].items():
        require(close(series["rms"][name], rms, REFERENCE_RTOL),
                f"time series RMS of {name} differs from the reference")


def check_montecarlo_csv(out: Path, design: Design, oracle: MonteCarloOracle) -> None:
    header, data = read_csv(out / "montecarlo.csv")
    require(header == ["freq_hz", "alpha_q1", "alpha_q3", "alpha_nominal"],
            f"unexpected montecarlo columns {header}")
    oracle.check(design, data[:, 0], data[:, 1], data[:, 2])


def check_identify(out: Path, reference_model) -> None:
    found = json.loads((out / "identified_model.json").read_text())
    for key, ref in reference_model.to_dict().items():
        require(close(found[key], ref, IDENTIFY_RTOL), f"identified {key} = {found[key]} != {ref}")


def check_current_source(stdout: str) -> None:
    values = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    for key, (ref, rtol) in (("transconductance_a_per_v", TRANSCONDUCTANCE),
                             ("leakage_a_per_v", LEAKAGE)):
        require(key in values, f"current-source printed no {key}")
        value = float(values[key])
        require(abs(value - ref) <= rtol * abs(ref), f"{key} = {value} outside tolerance")


def check_impedance(z, reference) -> None:
    ref = complex(*reference)
    require(close(z, ref, REFERENCE_RTOL), f"impedance {z} != reference {ref}")
