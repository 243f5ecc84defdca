"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute.  Each test
runs the real workloads on a few of their ops:

- a deliberately corrupted output counts as a failed op, so `error_rate`
  rises, on every workload;
- every metric BENCHMARK.json names is emitted with its unit, in the
  untraced and the traced mode, and the result line has the agreed keys;
- in a traced run no span's self time is negative and every child span
  lies inside its parent;
- in a directory without the package source the benchmark exits non-zero
  without printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from argparse import Namespace

import run
from spans import ID, PARENT, T0, T1, self_times

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# A few quick ops per workload, chosen to touch as many layers as possible.
QUICK_OPS = {
    "cli-cold": {"design:1dof", "kundt:1dof", "current-source"},
    "montecarlo": {"mc:1dof"},
    "closed-loop": {"loop:broadband:400Hz:lat1-causal"},
}


def quick_run(workload, trace, workload_cls=None, ops=None):
    args = Namespace(workload=workload, seed=7, seconds=0.01, trace=trace, setup_only=False)
    keep = ops or QUICK_OPS[workload]
    return run.run(args, workload_cls, lambda name: name in keep)


class CorruptedCli(run.CliCold):
    """Writes a slightly wrong absorption value into every kundt.csv."""

    def spawn(self, argv, traced, op_id):
        result = super().spawn(argv, traced, op_id)
        path = result.out_dir / "kundt.csv"
        if path.exists():
            lines = path.read_text().splitlines()
            cells = lines[1].split(",")
            cells[1] = repr(float(cells[1]) + 1e-6)
            lines[1] = ",".join(cells)
            path.write_text("\n".join(lines) + "\n")
        return result


class CorruptedOutputs(unittest.TestCase):
    def setUp(self):
        self.pk = run.load_packages()

    def test_cli_cold(self):
        record = quick_run("cli-cold", 0, CorruptedCli)
        failed = {row["op"] for row in record["ops"] if not row["ok"]}
        self.assertEqual(failed, {"kundt:1dof"})
        self.assertGreater(record["error_rate"], 0.0)

    def test_montecarlo(self):
        analysis = self.pk["analysis"]
        original = analysis.monte_carlo_absorption

        def corrupted(*args, **kwargs):
            band = original(*args, **kwargs)
            return type(band)(band.freqs_hz, band.q1, band.q3 + 1e-6, band.nominal)

        analysis.monte_carlo_absorption = corrupted
        try:
            record = quick_run("montecarlo", 0)
        finally:
            analysis.monte_carlo_absorption = original
        self.assertEqual(record["error_rate"], 1.0)
        self.assertFalse(record["result"]["correct"])

    def test_closed_loop(self):
        dsp = self.pk["dsp"]
        original = dsp.measure_impedance
        dsp.measure_impedance = lambda *a, **k: original(*a, **k) * (1.0 + 1e-5)
        try:
            record = quick_run("closed-loop", 0)
        finally:
            dsp.measure_impedance = original
        self.assertEqual(record["error_rate"], 1.0)


class EmittedMetrics(unittest.TestCase):
    def check_metrics(self, record, spec_key):
        result = record["result"]
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], record["ops"])
        self.assertEqual(record["error_rate"], 0.0)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def check_spans(self, record):
        spans = json.loads((run.ROOT / record["spans_file"]).read_text())
        by_id = {s[ID]: s for s in spans}
        self.assertEqual(len(by_id), len(spans), "span ids are not unique")
        for sid, self_s in self_times(spans).items():
            self.assertGreaterEqual(self_s, -1e-9, by_id[sid])
        for s in spans:
            if s[PARENT] is not None:
                parent = by_id[s[PARENT]]
                self.assertLessEqual(parent[T0], s[T0])
                self.assertLessEqual(s[T1], parent[T1])

    def test_every_workload_both_modes(self):
        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(quick_run(workload, 0), "end_to_end")
                traced = quick_run(workload, 1)
                self.check_metrics(traced, "per_layer")
                self.check_spans(traced)
                calls = {k: v["value"] for k, v in traced["result"]["metrics"].items()
                         if k.endswith(".calls")}
                self.assertGreater(sum(calls.values()), 0)

    def test_result_line(self):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "montecarlo",
             "--seed", "3", "--seconds", "0.01", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        for name in ("setup_s", "op_s.p50", "ops_per_s", "peak_rss_mb", "error_rate"):
            self.assertTrue(any(line.split()[:1] == [name] for line in lines), name)


class BareDirectory(unittest.TestCase):
    def test_fails_without_package(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(run.ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", "montecarlo",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
