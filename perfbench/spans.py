"""Span recording for the benchmark's traced runs.

`Tracer.install` replaces public callables of eabsorb with wrappers that
record one span per call: id, parent span, op id, name, start and end.
Spans stay in memory; the benchmark writes them out when the run ends.
eabsorb itself never imports this module, and an untraced run never
installs the wrappers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# Public callables that get a span, named relative to the eabsorb package.
TRACED = (
    "cli.main",
    "rational.RationalTransfer.__call__",
    "model.passive_impedance",
    "synthesis.synthesize_controller",
    "synthesis.stability_report",
    "analysis.monte_carlo_absorption",
    "analysis.draw_parameter_factors",
    "analysis.achieved_impedance",
    "identify.identify_model",
    "identify.MeasuredSpectrum.from_csv",
    "vkundt.simulate_two_mic",
    "vkundt.recover_reflection",
    "dsp.bilinear_discretize",
    "dsp.sos_partition",
    "dsp.closed_loop_sim",
    "dsp.measure_impedance",
    "dsp.SimulationResult.to_csv",
)

# Span record layout: one tuple per finished call.
ID, PARENT, OP, NAME, T0, T1, CPU0, CPU1, FAILED, WORK = range(10)


def _mc_evals(bound, result) -> int:
    cfg = bound.arguments["cfg"]
    return int(cfg.n_draws) * len(cfg.freqs_hz)


def _sim_samples(bound, result) -> int:
    return len(result.t)


# Work counted per call, and whether the span also records process CPU time.
WORK_COUNTERS = {
    "analysis.monte_carlo_absorption": _mc_evals,
    "dsp.closed_loop_sim": _sim_samples,
}
CPU_TIMED = {"analysis.monte_carlo_absorption"}


class Tracer:
    """Records spans around the wrapped callables while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op=None):
        """A span not tied to a wrapped callable, such as one whole op."""
        if op is not None:
            self.op = op
        stack = self._stack()
        sid, parent = next(self._ids), stack[-1] if stack else None
        stack.append(sid)
        failed = True
        t0 = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, self.op, name, t0, t1, None, None, failed, 0))

    def adopt(self, spans) -> None:
        """Append spans recorded by another process, under fresh ids."""
        ids = {rec[ID]: next(self._ids) for rec in spans}
        for rec in spans:
            self.spans.append((ids[rec[ID]], ids.get(rec[PARENT]), *rec[OP:]))

    def _wrap(self, name: str, fn):
        counter = WORK_COUNTERS.get(name)
        cpu = name in CPU_TIMED
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid, parent, op = next(self._ids), stack[-1] if stack else None, self.op
            stack.append(sid)
            failed, work = True, 0
            cpu0 = time.process_time() if cpu else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if counter:
                    work = counter(signature.bind(*args, **kwargs), result)
                return result
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time() if cpu else None
                stack.pop()
                # a tuple of plain values: the garbage collector stops
                # tracking it, so collections stay cheap as spans pile up
                self.spans.append((sid, parent, op, name, t0, t1, cpu0, cpu1, failed, work))

        return traced

    def install(self) -> None:
        """Wrap every callable in TRACED, wherever eabsorb binds it."""
        import eabsorb.cli  # noqa: F401  (loads every eabsorb module)

        for name in TRACED:
            module_name, *path = name.split(".")
            owner = sys.modules[f"eabsorb.{module_name}"]
            if len(path) == 1:
                original = getattr(owner, path[0])
                wrapped = self._wrap(name, original)
                # the function may also be bound under its name in other
                # eabsorb modules (`from .model import passive_impedance`)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] == "eabsorb" and getattr(mod, path[0], None) is original:
                        self._undo.append((mod, path[0], original))
                        setattr(mod, path[0], wrapped)
            else:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._undo.append((cls, path[1], raw))
                setattr(cls, path[1], wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict = {}
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] = child_time.get(rec[PARENT], 0.0) + rec[T1] - rec[T0]
    return {rec[ID]: rec[T1] - rec[T0] - child_time.get(rec[ID], 0.0) for rec in spans}


def layer_totals(spans) -> dict:
    """Per traced name: calls, total s, self s, failed calls, work, CPU s."""
    selfs = self_times(spans)
    totals = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "work": 0, "cpu_s": 0.0}
        for name in TRACED
    }
    for rec in spans:
        t = totals.get(rec[NAME])
        if t is None:
            continue
        t["calls"] += 1
        t["s"] += rec[T1] - rec[T0]
        t["self_s"] += selfs[rec[ID]]
        t["failed"] += int(rec[FAILED])
        t["work"] += rec[WORK]
        if rec[CPU0] is not None:
            t["cpu_s"] += rec[CPU1] - rec[CPU0]
    return totals
