"""eabsorb benchmark: cold CLI calls, Monte Carlo studies and closed-loop runs.

    python3 perfbench/run.py --workload {cli-cold,montecarlo,closed-loop}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the package is imported from
`src/`).  One client runs ops back to back: the next op starts when the
previous one ends, never more than one child process at a time.  A pass is
the workload's op list in a fixed order; the run repeats whole passes and
starts another only if, judged by the last one, it ends within --seconds
(at least one pass).  The seed drives only the Monte Carlo seeds.  Every
op's output is checked after the timed passes; a wrong answer, an error or
a rerun that differs counts as a failed op.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
untraced and half with span-recording wrappers around the package's public
callables, and reports per-layer metrics and the tracing overhead.  The last
stdout line is the JSON result; a run record with every op time goes to
.perfbench/records/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from spans import TRACED, Tracer, layer_totals  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".perfbench"
LAUNCHER = BENCH / "launcher.py"
REFERENCES = BENCH / "references.json"

DESIGNS = ("1dof", "2dof", "broadband")
CLI_VERBS = ("design", "kundt", "montecarlo", "simulate")
LOOP_FREQS = (100.0, 205.5, 400.0)
LOOP_BRANCHES = ((0, "centered"), (1, "centered"), (1, "causal"))
LOOP_FS = 50_000.0
LOOP_DURATION = 1.0
LOOP_TRANSIENT = 0.5
RESISTORS = ("92e3", "92e3", "1.1e3", "1.1e3", "1.2")  # reference current source
SETUP_REPEATS = 3  # setups per untraced run; setup_s is their median

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass
class Op:
    """One timed call.  `run(tracer, op_id)` returns the output `check` verifies."""

    name: str
    run: object
    check: object


@dataclass
class Timed:
    op: Op
    phase: str
    seconds: float
    output: object
    error: str = ""


@dataclass
class CliRun:
    out_dir: Path
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    spans_path: Path = None


@dataclass
class Context:
    seed: int
    work: Path
    packages: dict = field(default_factory=dict)


def child_env() -> dict:
    """Environment for child Pythons: the checkout's `src` goes first on the path."""
    return os.environ | {"PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}


def with_out(argv: list, out_dir: Path) -> list:
    return argv if argv[0] == "current-source" else [*argv, "--out", str(out_dir)]


def in_process(fn):
    def run(tracer, op_id):
        if tracer is None:
            return fn()
        with tracer.span("op", op=op_id):
            return fn()

    return run


# -- workloads ----------------------------------------------------------------


def load_designs(model) -> list:
    return [checks.Design.load(FIXTURES / f"table1_{d}.json", model) for d in DESIGNS]


class Workload:
    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.pk = ctx.packages
        self.ops: list[Op] = []

    def peak_rss_mb(self, results) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def after_checks(self, results) -> None:
        """Extra checks across ops (e.g. reruns); marks failures in place."""



class MonteCarlo(Workload):
    """One in-process monte_carlo_absorption study per fixture."""

    name = "montecarlo"

    def __init__(self, ctx):
        super().__init__(ctx)
        an, syn = self.pk["analysis"], self.pk["synthesis"]
        self.oracle = checks.MonteCarloOracle(an, ctx.seed)
        self.first: dict = {}
        for design in load_designs(self.pk["model"]):
            cfg = an.MonteCarloConfig(n_draws=design.n_draws, rel_std=design.rel_std,
                                      seed=ctx.seed, freqs_hz=design.freqs_hz)
            args = (design.driver, design.target_spec(syn), design.feedback_spec(syn), cfg)
            self.ops.append(Op(
                f"mc:{design.name}",
                in_process(lambda args=args: an.monte_carlo_absorption(*args)),
                lambda band, design=design: self.check(design, band),
            ))

    def check(self, design, band) -> None:
        self.oracle.check(design, band.freqs_hz, band.q1, band.q3)
        first = self.first.setdefault(design.name, band)
        checks.require(all(getattr(band, k).tobytes() == getattr(first, k).tobytes()
                           for k in ("q1", "q3", "nominal")),
                       "rerun of the same study gave different quartiles")


def closed_loop_calls(packages) -> list:
    """(op name, measure_impedance args) of every closed-loop op, in pass order."""
    dsp, syn = packages["dsp"], packages["synthesis"]
    calls = []
    for design in load_designs(packages["model"]):
        pair = syn.synthesize_controller(design.driver, design.target_spec(syn),
                                         design.feedback_spec(syn))
        cascades = (dsp.bilinear_discretize(pair.h1, LOOP_FS),
                    dsp.bilinear_discretize(pair.h2, LOOP_FS))
        for latency, hold in LOOP_BRANCHES:
            loop = dsp.LoopConfig(fs=LOOP_FS, latency=latency, hold=hold,
                                  duration=LOOP_DURATION, transient=LOOP_TRANSIENT)
            for f_hz in LOOP_FREQS:
                name = f"loop:{design.name}:{f_hz:g}Hz:lat{latency}-{hold}"
                calls.append((name, (design.driver, cascades, loop, f_hz)))
    return calls


class ClosedLoop(Workload):
    """One in-process measure_impedance call per design, frequency and loop."""

    name = "closed-loop"

    def __init__(self, ctx):
        super().__init__(ctx)
        dsp = self.pk["dsp"]
        refs = json.loads(REFERENCES.read_text())["closed_loop"]
        for name, call in closed_loop_calls(self.pk):
            self.ops.append(Op(
                name,
                in_process(lambda call=call: dsp.measure_impedance(*call)),
                lambda z, ref=refs[name]: checks.check_impedance(z, ref),
            ))


class CliCold(Workload):
    """One fresh `python -m eabsorb.cli <verb>` process per op."""

    name = "cli-cold"

    def __init__(self, ctx):
        super().__init__(ctx)
        ident, model = self.pk["identify"], self.pk["model"]
        self.env = child_env()
        self.hashes: dict = {}
        self.oracle = checks.MonteCarloOracle(self.pk["analysis"], ctx.seed)
        refs = json.loads(REFERENCES.read_text())["simulate"]
        self.counter = 0
        self.argvs: dict = {}

        for design in load_designs(self.pk["model"]):
            config = str(FIXTURES / f"table1_{design.name}.json")
            verb_checks = {
                "design": lambda r, d=design: checks.check_design(r.out_dir, d),
                "kundt": lambda r, d=design: checks.check_kundt(r.out_dir, d),
                "montecarlo": lambda r, d=design: checks.check_montecarlo_csv(
                    r.out_dir, d, self.oracle),
                "simulate": lambda r, ref=refs[design.name]: checks.check_simulate(
                    r.out_dir, ref),
            }
            for verb in CLI_VERBS:
                argv = [verb, "--config", config]
                if verb == "montecarlo":
                    argv += ["--seed", str(ctx.seed)]
                self.add(f"{verb}:{design.name}", argv, verb_checks[verb])

        # identify: spectra of the reference driver under the default probes
        reference = model.table_reference_model()
        k1, k2 = ident.default_probe_gains(reference)
        spectra = {
            "passive": ident.passive_spectrum(reference),
            "front": ident.probe_front_spectrum(reference, k1),
            "rear": ident.probe_rear_spectrum(reference, k2),
        }
        argv = ["identify"]
        for name, spectrum in spectra.items():
            path = ctx.work / f"{name}.csv"
            spectrum.to_csv(path, reference.air)
            argv += [f"--{name}", str(path)]
        argv += ["--k1", repr(k1.k), "--k2", repr(k2.k)]
        self.add("identify", argv, lambda r: checks.check_identify(r.out_dir, reference))

        argv = ["current-source"]
        for k, r in enumerate(RESISTORS, start=1):
            argv += [f"--r{k}", r]
        self.add("current-source", argv, lambda r: checks.check_current_source(r.stdout))

    def add(self, name, argv, check) -> None:
        self.argvs[name] = argv

        def run(tracer, op_id):
            return self.spawn(argv, tracer is not None, op_id)

        def full_check(result):
            checks.require(result.code == 0, f"exit code {result.code}: {result.stderr[-300:]}")
            check(result)
            self.check_hashes(name, result.out_dir, result.stdout)

        self.ops.append(Op(name, run, full_check))

    def spawn(self, argv, traced: bool, op_id: str) -> CliRun:
        self.counter += 1
        base = self.ctx.work / f"op{self.counter:04d}"
        out_dir = base / "out"
        out_dir.mkdir(parents=True)
        spans_path = None
        if traced:
            spans_path = base / "spans.json"
            cmd = [sys.executable, "-X", "importtime", str(LAUNCHER), str(spans_path), op_id]
        else:
            cmd = [sys.executable, "-m", "eabsorb.cli"]
        cmd += with_out(argv, out_dir)
        with open(base / "stdout", "wb") as so, open(base / "stderr", "wb") as se:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=so, stderr=se)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliRun(out_dir, proc.returncode, (base / "stdout").read_text(),
                      (base / "stderr").read_text(), usage.ru_maxrss, spans_path)

    def check_hashes(self, name, out_dir: Path, stdout: str) -> None:
        digest = checks.file_hashes(out_dir)
        digest["<stdout>"] = stdout.replace(str(out_dir), "<out>")
        first = self.hashes.setdefault(name, digest)
        checks.require(digest == first, "output differs from an earlier run of the same op")

    def after_checks(self, results) -> None:
        """Rerun each op once in-process; differing output hashes fail the op."""
        for name in dict.fromkeys(t.op.name for t in results if not t.error):
            out_dir = self.ctx.work / f"rerun-{name.replace(':', '-')}"
            out_dir.mkdir()
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = self.pk["cli"].main(with_out(self.argvs[name], out_dir))
                if code != 0:
                    raise RuntimeError(f"in-process rerun exited with {code}")
                self.check_hashes(name, out_dir, stdout.getvalue())
            except Exception as exc:  # any failure here fails the op, not the run
                for t in results:
                    if t.op.name == name and not t.error:
                        t.error = f"rerun: {exc}"

    def peak_rss_mb(self, results) -> float:
        return max((t.output.maxrss_kb for t in results if isinstance(t.output, CliRun)),
                   default=0) / 1024.0


WORKLOADS = {w.name: w for w in (CliCold, MonteCarlo, ClosedLoop)}


# -- running and checking -----------------------------------------------------


def run_passes(ops, seconds: float, phase: str, tracer=None) -> tuple[list, float]:
    """Whole passes over `ops`; returns the timed ops and the run wall time."""
    results = []
    start = time.perf_counter()
    n_pass = 0
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            op_id = f"{phase}{n_pass}:{op.name}"
            t0 = time.perf_counter()
            try:
                output, error = op.run(tracer, op_id), ""
            except Exception as exc:  # a failing op is counted; the run goes on
                output, error = None, f"{type(exc).__name__}: {exc}"
            results.append(Timed(op, phase, time.perf_counter() - t0, output, error))
        n_pass += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            return results, now - start


def check_all(workload: Workload, results) -> None:
    for t in results:
        if t.error:
            continue
        try:
            t.op.check(t.output)
        except Exception as exc:  # a wrong or unreadable output fails the op
            t.error = f"{type(exc).__name__}: {exc}"
    workload.after_checks(results)


def load_packages() -> dict:
    sys.path.insert(0, str(SRC))
    import eabsorb.cli  # noqa: F401  (imports every module of the package)

    names = ("rational", "model", "synthesis", "analysis", "identify", "vkundt", "dsp", "cli")
    return {n: sys.modules[f"eabsorb.{n}"] for n in names}


def setup_in_child(args) -> float:
    """Time one more complete set-up in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


# -- metrics ------------------------------------------------------------------


def end_to_end(results, wall, setup_samples, rss_mb) -> dict:
    values = {
        "setup_s": statistics.median(setup_samples),
        "op_s.p50": statistics.median(t.seconds for t in results),
        "ops_per_s": len(results) / wall,
        "peak_rss_mb": rss_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


IMPORT_LINE = "import time:"


def importtime(stderr: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith(IMPORT_LINE) and "|" in line:
            _, cum, name = line[len(IMPORT_LINE):].split("|")
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum) * 1e-6)
    return cumulative


def import_probe(ctx: Context) -> dict:
    """Import facts of a fresh `import eabsorb.cli`, for in-process workloads."""
    out = ctx.work / "import-probe.json"
    proc = subprocess.run([sys.executable, "-X", "importtime", str(LAUNCHER), str(out), "probe"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    facts = json.loads(out.read_text())
    return {"imports": importtime(proc.stderr), "modules": facts["modules"]}


def per_layer(tracer, traced, untraced_rate, traced_rate, probes) -> dict:
    totals = layer_totals(tracer.spans)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    put("import.eabsorb_s", statistics.median(p["imports"].get("eabsorb", 0.0) for p in probes), "s")
    put("import.scipy_signal_s",
        statistics.median(p["imports"].get("scipy.signal", 0.0) for p in probes), "s")
    put("import.modules", statistics.median(p["modules"] for p in probes), "count")
    put("cli.bytes_written", sum(
        sum(f.stat().st_size for f in t.output.out_dir.iterdir()) + len(t.output.stdout.encode())
        for t in traced if isinstance(t.output, CliRun)), "B")
    for name in TRACED:
        t = totals[name]
        put(f"{name}.calls", t["calls"], "count")
        put(f"{name}.s", t["s"], "s")
        put(f"{name}.self_s", t["self_s"], "s")
        put(f"{name}.failed", t["failed"], "count")
    mc = totals["analysis.monte_carlo_absorption"]
    put("analysis.evals", mc["work"], "count")
    put("analysis.evals_per_s", mc["work"] / mc["s"] if mc["s"] else 0.0, "1/s")
    put("analysis.mc_cpu_util", mc["cpu_s"] / mc["s"] if mc["s"] else 0.0, "ratio")
    sim = totals["dsp.closed_loop_sim"]
    put("dsp.samples", sim["work"], "count")
    put("dsp.samples_per_s", sim["work"] / sim["s"] if sim["s"] else 0.0, "1/s")
    put("trace.untraced_ops_per_s", untraced_rate, "1/s")
    put("trace.traced_ops_per_s", traced_rate, "1/s")
    put("trace.overhead", untraced_rate / traced_rate - 1.0, "ratio")
    return out


def merge_child_spans(tracer, results) -> list:
    """Fold the spans of traced CLI children into `tracer`; return import facts."""
    probes = []
    for t in results:
        run = t.output
        if not isinstance(run, CliRun) or run.spans_path is None or not run.spans_path.exists():
            continue
        facts = json.loads(run.spans_path.read_text())
        tracer.adopt(facts["spans"])
        probes.append({"imports": importtime(run.stderr), "modules": facts["modules"]})
    return probes


# -- run record ---------------------------------------------------------------


def environment(packages) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "eabsorb": getattr(sys.modules["eabsorb"], "__version__", None),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads()},
        "git_commit": commit,
    }


def blas_threads():
    """Thread count of numpy's OpenBLAS, or the thread env vars if unknown."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}


def op_rows(results) -> list:
    return [{"op": t.op.name, "phase": t.phase, "s": t.seconds, "ok": not t.error,
             **({"error": t.error} if t.error else {})} for t in results]


# -- entry point --------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run(args, workload_cls=None, op_filter=None) -> dict:
    """One benchmark run; returns the run record (result line included)."""
    workload_cls = workload_cls or WORKLOADS[args.workload]
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(seed=args.seed, work=work, packages=load_packages())
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            with tracer.span("setup", op="setup"):
                workload = workload_cls(ctx)
            tracer.uninstall()
        else:
            workload = workload_cls(ctx)
        if op_filter is not None:
            workload.ops = [op for op in workload.ops if op_filter(op.name)]
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            return {"setup_s": setup_s}

        if not args.trace:
            results, wall = run_passes(workload.ops, args.seconds, "run")
            rss_mb = workload.peak_rss_mb(results)
            check_all(workload, results)
            setup = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
            metrics = end_to_end(results, wall, setup, rss_mb)
            extra = {"setup_s_samples": setup, "wall_s": wall}
        else:
            half = args.seconds / 2.0
            untraced, wall_u = run_passes(workload.ops, half, "untraced")
            tracer.install()
            traced, wall_t = run_passes(workload.ops, half, "traced", tracer)
            tracer.uninstall()
            results = untraced + traced
            check_all(workload, results)
            probes = merge_child_spans(tracer, traced) or [import_probe(ctx)]
            metrics = per_layer(tracer, traced, len(untraced) / wall_u,
                                len(traced) / wall_t, probes)
            extra = {"wall_s": {"untraced": wall_u, "traced": wall_t}}
            spans_file = WORK / "records" / f"{args.workload}-seed{args.seed}-spans.json"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            spans_file.write_text(json.dumps(tracer.spans))
            extra["spans_file"] = str(spans_file.relative_to(ROOT))

        failed = sum(1 for t in results if t.error)
        return {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(ctx.packages),
            "error_rate": failed / len(results), **extra, "ops": op_rows(results),
            "result": {"correct": failed == 0, "attempted": len(results), "failed": failed,
                       "metrics": metrics},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn a termination request into SystemExit, so children are stopped
    # and the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "eabsorb" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no eabsorb source tree at {SRC} (run from a source checkout)",
              file=sys.stderr)
        return 2
    record = run(args)
    if args.setup_only:
        print(json.dumps(record))
        return 0
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    result = record["result"]
    print(f"workload {args.workload}  seed {args.seed}  record {path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<48} {record['error_rate']:>16.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} ops failed)")
    for row in record["ops"]:
        if not row["ok"]:
            print(f"  FAILED {row['op']}: {row['error']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
