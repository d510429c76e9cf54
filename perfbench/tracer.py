"""Traced run of one benchmark workload, and the per-layer metrics it yields.

    python3 perfbench/tracer.py spans OUT_JSON -m svie simulate --config ...
    python3 perfbench/tracer.py kernels OUT_JSON perfbench/quad_workload.py --seed ...

The command after OUT_JSON is the untraced workload command without its
``python3``.  In ``spans`` mode this script first wraps the public functions
of each svie module where their caller looks them up
(``svie.cli.ensemble_simulate``, ``svie.solver.direct_recursion``,
``svie.grid_noise.LevyMeasure.integrate``, ...); each wrapper records a span
(name, start, end, id, parent id, thread) in memory.  In ``kernels`` mode it
wraps only the kernel callables of the coefficient set the workload builds,
with counters: they run millions of times inside quadrature, so counting
them in the timed run would put the counters' cost into the layer times.
Spans and counters are written to OUT_JSON when the run ends.

``layer_metrics`` turns the two files into the benchmark's per-layer
metrics; it needs only the standard library, so run.py imports it without
importing svie.
"""

from __future__ import annotations

import functools
import itertools
import json
import runpy
import statistics
import sys
import threading
import time
from dataclasses import replace

# name -> unit of every per-layer metric; the order is the report order
LAYER_UNITS = {
    "solver.ensemble_s": "s",
    "solver.self_s": "s",
    "solver.path_ms_p50": "ms",
    "solver.path_ms_p98": "ms",
    "solver.picard_s": "s",
    "solver.picard_sweeps": "count",
    "solver.sweep_ms": "ms",
    "solver.rows_swept": "rows_computed",
    "solver.row_cells": "cells_computed",
    "solver.exploded_paths": "count",
    "coefficients.kernel_calls": "count",
    "coefficients.kernel_elems_per_call": "elems/call",
    "coefficients.audit_growth_s": "s",
    "coefficients.audit_modulus_s": "s",
    "grid_noise.integrate_s": "s",
    "grid_noise.integrate_calls": "count",
    "grid_noise.compensator_s": "s",
    "grid_noise.compensator_elems": "count",
    "grid_noise.sample_s": "s",
    "grid_noise.sample_calls": "count",
    "analysis.picard_gap_s": "s",
    "analysis.doob_s": "s",
    "analysis.moment_check_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "process.tracing_overhead_s": "s",
}

_SAMPLING = ("grid_noise.sample_noise_path", "grid_noise.sample_noise_ensemble")
_DOOB_BUILDERS = ("analysis.brownian_martingale_ensemble", "analysis.compensated_jump_ensemble")


class Tracer:
    """In-memory spans and counters for one process.

    A span opened on a thread with no open span of its own (a thread-pool
    worker) takes the innermost open span of the main thread as its parent,
    which is the call that handed it the work.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int | None, int]] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_exit(args, result, error)`` runs after the call, for counters
        that depend on the arguments or the outcome.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and thread != self._main else None
            span = next(self._ids)
            stack.append(span)
            result = error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((name, start, end, span, parent, thread))
                if on_exit is not None:
                    on_exit(args, result, error)

        setattr(owner, attr, traced)

    def counted(self, kernel):
        """Kernel callable that counts its calls and the elements it returns."""
        if kernel is None:
            return None
        lock = self._lock
        counts = self.counts

        def counting(*args):
            out = kernel(*args)
            size = getattr(out, "size", 1)
            with lock:
                counts["coefficients.kernel_calls"] = counts.get("coefficients.kernel_calls", 0) + 1
                counts["coefficients.kernel_elems"] = counts.get("coefficients.kernel_elems", 0) + size
            return out

        return counting

    def count_kernels(self, coeffs):
        return replace(
            coeffs,
            drift=self.counted(coeffs.drift),
            diffusion=self.counted(coeffs.diffusion),
            jump=self.counted(coeffs.jump),
            compensator=self.counted(coeffs.compensator),
        )


def install_kernel_counters(tracer: Tracer) -> None:
    """Count the kernel calls of the coefficient set the workload builds.

    The CLI builds it through coefficient_catalogue, the Python-API workload
    through example_coefficients.
    """
    import svie
    from svie import cli

    def kernels_of(build):
        return functools.wraps(build)(lambda *args, **kwargs: tracer.count_kernels(build(*args, **kwargs)))

    for owner, name in ((cli, "coefficient_catalogue"), (svie, "example_coefficients")):
        setattr(owner, name, kernels_of(getattr(owner, name)))


def install_spans(tracer: Tracer) -> None:
    """Wrap every traced svie function where its callers look it up."""
    import svie
    from svie import analysis, cli, grid_noise, solver
    from svie.errors import ExplosionError

    def rows_done(args, result, error):
        # rows i = 1..k of a sweep read k(k+1)/2 lower-triangle cells
        rows = error.grid_index if isinstance(error, ExplosionError) else args[1].grid.steps
        tracer.add("solver.rows_swept", rows)
        tracer.add("solver.row_cells", rows * (rows + 1) // 2)
        if isinstance(error, ExplosionError):
            tracer.add("solver.exploded_paths")

    def iterate_sweeps(args, result, error):
        if result:
            sweeps, steps = max(result), args[1].grid.steps
            tracer.add("solver.picard_sweeps", sweeps)
            tracer.add("solver.rows_swept", sweeps * steps)
            tracer.add("solver.row_cells", sweeps * steps * (steps + 1) // 2)

    def compensator_elems(args, result, error):
        if result is not None:
            tracer.add("grid_noise.compensator_elems", getattr(result, "size", 1))

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "coefficient_catalogue", "coefficients.coefficient_catalogue")
    tracer.wrap(cli, "audit_linear_growth", "coefficients.audit_linear_growth")
    tracer.wrap(cli, "audit_modulus", "coefficients.audit_modulus")
    tracer.wrap(cli, "ensemble_simulate", "solver.ensemble_simulate")
    tracer.wrap(cli, "sample_noise_path", "grid_noise.sample_noise_path")
    tracer.wrap(cli, "sample_noise_ensemble", "grid_noise.sample_noise_ensemble")
    tracer.wrap(solver, "direct_recursion", "solver.direct_recursion", rows_done)
    tracer.wrap(svie, "direct_recursion", "solver.direct_recursion", rows_done)
    tracer.wrap(solver, "sample_noise_path", "grid_noise.sample_noise_path")
    tracer.wrap(svie, "sample_noise_path", "grid_noise.sample_noise_path")
    tracer.wrap(grid_noise, "sample_noise_path", "grid_noise.sample_noise_path")
    tracer.wrap(solver, "compensator_integral", "grid_noise.compensator_integral", compensator_elems)
    tracer.wrap(grid_noise.LevyMeasure, "integrate", "grid_noise.LevyMeasure.integrate")
    tracer.wrap(analysis, "picard_gap", "analysis.picard_gap")
    tracer.wrap(analysis, "picard_iterates", "solver.picard_iterates", iterate_sweeps)
    tracer.wrap(analysis, "brownian_martingale_ensemble", "analysis.brownian_martingale_ensemble")
    tracer.wrap(analysis, "compensated_jump_ensemble", "analysis.compensated_jump_ensemble")
    tracer.wrap(analysis, "moment_check", "analysis.moment_check")
    tracer.wrap(analysis, "doob_check", "analysis.doob_check")


MODES = {"spans": install_spans, "kernels": install_kernel_counters}


def run_traced(mode: str, out_path: str, command: list[str]) -> int:
    tracer = Tracer()
    MODES[mode](tracer)
    if command[:1] == ["-m"]:
        sys.argv = [command[1], *command[2:]]
        target = lambda: runpy.run_module(command[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(command)
        target = lambda: runpy.run_path(command[0], run_name="__main__")
    start = time.perf_counter()
    code = 0
    try:
        target()
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    finally:
        end = time.perf_counter()
        doc = {"wall_s": end - start, "spans": tracer.spans, "counts": tracer.counts}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


# --- per-layer metrics from a spans file -------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, _, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, [])) for _, start, end, sid, _, _ in spans}


def _percentile(values: list[float], q: int) -> float:
    """Linear-interpolation percentile, q in 1..99 (0 for no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(doc: dict, kernel_counts: dict) -> dict[str, float]:
    """Per-layer metrics of a ``spans`` run and the counts of a ``kernels`` run.

    The ``process.*`` and ``cli.artifact_bytes`` / ``cli.write_mb_per_s``
    metrics need run.py's own measurements and are filled in there.
    """
    spans = [tuple(s) for s in doc["spans"]]
    counts = doc["counts"]
    names = {sid: name for name, _, _, sid, _, _ in spans}
    parents = {sid: parent for _, _, _, sid, parent, _ in spans}
    selfs = self_times(spans)

    def outermost(group) -> list[tuple]:
        # spans of the group that no span of the same group encloses
        out = []
        for span in spans:
            if span[0] not in group:
                continue
            parent = span[4]
            while parent is not None and names.get(parent) not in group:
                parent = parents.get(parent)
            if parent is None:
                out.append(span)
        return out

    def busy(*group) -> float:
        return sum(end - start for _, start, end, _, _, _ in outermost(group))

    def calls(name) -> int:
        return sum(1 for span in spans if span[0] == name)

    def self_of(layer) -> float:
        return sum(selfs[sid] for name, _, _, sid, _, _ in spans if name.startswith(layer + "."))

    path_ms = [1e3 * (end - start) for name, start, end, _, _, _ in spans if name == "solver.direct_recursion"]
    picard_s = busy("solver.picard_iterates")
    sweeps = counts.get("solver.picard_sweeps", 0)
    kernel_calls = kernel_counts.get("coefficients.kernel_calls", 0)
    return {
        "solver.ensemble_s": busy("solver.ensemble_simulate"),
        "solver.self_s": self_of("solver"),
        "solver.path_ms_p50": _percentile(path_ms, 50),
        "solver.path_ms_p98": _percentile(path_ms, 98),
        "solver.picard_s": picard_s,
        "solver.picard_sweeps": sweeps,
        "solver.sweep_ms": 1e3 * picard_s / sweeps if sweeps else 0.0,
        "solver.rows_swept": counts.get("solver.rows_swept", 0),
        "solver.row_cells": counts.get("solver.row_cells", 0),
        "solver.exploded_paths": counts.get("solver.exploded_paths", 0),
        "coefficients.kernel_calls": kernel_calls,
        "coefficients.kernel_elems_per_call": kernel_counts.get("coefficients.kernel_elems", 0) / kernel_calls
        if kernel_calls
        else 0.0,
        "coefficients.audit_growth_s": busy("coefficients.audit_linear_growth"),
        "coefficients.audit_modulus_s": busy("coefficients.audit_modulus"),
        "grid_noise.integrate_s": busy("grid_noise.LevyMeasure.integrate"),
        "grid_noise.integrate_calls": calls("grid_noise.LevyMeasure.integrate"),
        "grid_noise.compensator_s": busy("grid_noise.compensator_integral"),
        "grid_noise.compensator_elems": counts.get("grid_noise.compensator_elems", 0),
        "grid_noise.sample_s": busy(*_SAMPLING),
        "grid_noise.sample_calls": calls("grid_noise.sample_noise_path"),
        "analysis.picard_gap_s": busy("analysis.picard_gap"),
        "analysis.doob_s": busy(*_DOOB_BUILDERS),
        "analysis.moment_check_s": busy("analysis.moment_check"),
        "cli.main_s": busy("cli.main"),
        "cli.self_s": self_of("cli"),
    }


def thread_self_sums(doc: dict) -> dict[int, float]:
    """Thread id -> summed self time of the spans recorded on that thread."""
    spans = [tuple(s) for s in doc["spans"]]
    selfs = self_times(spans)
    sums: dict[int, float] = {}
    for _, _, _, sid, _, thread in spans:
        sums[thread] = sums.get(thread, 0.0) + selfs[sid]
    return sums


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] not in MODES:
        sys.exit("usage: tracer.py {spans|kernels} OUT_JSON (-m MODULE | SCRIPT) [ARGS...]")
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[3:]))
