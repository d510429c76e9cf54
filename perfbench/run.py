"""svie benchmark: whole-process CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload simulate --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run it from the repository root.  It measures the code under ``src/`` (svie
is not installed; every child process gets ``PYTHONPATH=src``), so the
numbers always belong to the checked-out commit.  Scratch files go to
``.perfbench_out/``.

With ``--trace 0`` it times the workload as separate processes, repeated
for about ``--seconds`` seconds, checks every run's output, and reports the
end-to-end metrics (medians over the runs; the times scaled to a reference
host speed by a calibration process run between them, see
``CALIBRATION_REF_S``).  With ``--trace 1`` it makes
one run that counts kernel calls, then runs the workload in pairs, once
untraced and once with the spans of ``perfbench/tracer.py``, and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment and the raw samples.  ``--smoke`` runs every
workload at a tiny size in both modes and asserts that every metric is
reported with its unit and that the traced counters match the workload's
size and output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_out"

# --seed n drives master seed 1 + n mod SEED_SPAN, so every seed has a
# recorded reference for the simulate workload in reference.json
SEED_SPAN = 32
# Timings on a shared 2-core machine vary by about +-15% from one process
# to the next, so every figure is a median over at least MIN_RUNS runs.
MIN_RUNS = 3
# The same machine also runs everything up to 1.5 times slower for tens of
# seconds at a time while other tenants load it, and a median within one run
# does not remove a phase that covers the run.  So every workload process
# is bracketed by runs of calibrate.py (fixed work like the workloads',
# independent of src/), and each process's time is scaled by
# CALIBRATION_REF_S / (mean of the two calibration times around it) before
# the median is taken: the end-to-end times read as seconds on a host that
# runs the calibration in CALIBRATION_REF_S, which is this 2-vCPU host at
# its usual speed.  The raw times are kept in the detail line.
CALIBRATION_REF_S = 1.7
# set-up probes per run; setup_s is the median of them
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150.0

# A path-batched row kernel may change the last bits of each value (a
# prototype differed from the seed commit by 1.4e-12), so results are
# compared to a relative tolerance, not by digest.
MOMENT_REL_TOL = 1e-9
# certified relative error of the mark-space quadrature behind the
# compensator fallback
QUAD_REL_TOL = 1e-8
VERIFY_CHECKS = (
    "linear_growth",
    "modulus",
    "doob_brownian",
    "doob_jump",
    "moment_envelope",
    "picard_gap",
    "majorant_chain",
)

# pass_share is 1 - fail_share, the share of runs whose exit code and output
# check passed.  It is reported instead of fail_share because a metric that
# is 0 at the parent commit cannot carry a bound relative to the parent.
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_share": "share"}


@dataclass(frozen=True)
class Size:
    steps: int
    paths: int


@dataclass(frozen=True)
class Workload:
    name: str
    full: Size
    smoke: Size
    command: Callable[[int, Size, Path], list[str]]  # (master seed, size, out dir) -> argv after python
    check: Callable[[int, Size, Path, str], str | None]  # -> reason the output is wrong, or None
    # (size, out dir) -> per-layer counters a correct tracer must report for a run
    expect: Callable[[Size, Path], dict[str, float]]


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: str


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run ``python argv`` from the repository root; time it launch to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
        output=log.read_text(encoding="utf-8", errors="replace"),
    )


# --- workloads -----------------------------------------------------------------


def _config(size: Size, extra: str = "") -> str:
    return (
        "schema = svie-run/1\ncoefficient_set = example\nmodulus = linear\nhorizon = 0.5\n"
        f"steps = {size.steps}\npaths = {size.paths}\njump_coefficient = 0.1\njump_rate = 2.0\n{extra}"
    )


def svie_command(command: str, threads: int, extra: str = "") -> Callable[[int, Size, Path], list[str]]:
    def argv(seed: int, size: Size, out: Path) -> list[str]:
        config = out.parent / f"{command}.cfg"
        config.write_text(_config(size, extra), encoding="utf-8")
        return ["-m", "svie", command, "--config", str(config), "--seed", str(seed), "--out", str(out),
                "--threads", str(threads)]  # fmt: skip

    return argv


def _close(got, want, rel_tol: float) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= rel_tol * max(abs(got), abs(want))


def load_reference() -> dict:
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def simulate_summary_digest(summary: dict, steps: int) -> dict:
    """The part of summary.json that reference.json records for one seed."""
    stride = max(1, steps // 16)
    pick = lambda values: None if values is None else values[::stride]
    return {
        "exploded_paths": summary["exploded_paths"],
        "mean": pick(summary["mean"]),
        "second_moment": pick(summary["second_moment"]),
    }


def check_simulate(seed: int, size: Size, out: Path, output: str) -> str | None:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    if summary["n_paths"] != size.paths:
        return f"n_paths {summary['n_paths']} != {size.paths}"
    want = load_reference()[f"{size.steps}x{size.paths}"][str(seed)]
    got = simulate_summary_digest(summary, size.steps)
    if got["exploded_paths"] != want["exploded_paths"]:
        return f"exploded_paths {got['exploded_paths']} != reference {want['exploded_paths']}"
    for key in ("mean", "second_moment"):
        if (got[key] is None) != (want[key] is None) or not all(
            _close(g, w, MOMENT_REL_TOL) for g, w in zip(got[key] or [], want[key] or [])
        ):
            return f"{key} differs from the reference beyond relative {MOMENT_REL_TOL}"
    with open(out / "paths.csv", "rb") as fh:
        rows = sum(1 for _ in fh)
    if rows != 1 + size.paths * (size.steps + 1):
        return f"paths.csv has {rows} lines, expected {1 + size.paths * (size.steps + 1)}"
    return None


def check_verify(seed: int, size: Size, out: Path, output: str) -> str | None:
    report = json.loads((out / "verification.json").read_text(encoding="utf-8"))
    names = tuple(c["name"] for c in report["checks"])
    if names != VERIFY_CHECKS:
        return f"checks {names} != {VERIFY_CHECKS}"
    if report["all_pass"] is not True:
        return "all_pass is not true"
    return None


@functools.cache
def closed_form_paths(seed: int, size: Size) -> list:
    """Closed-form-compensator solves of the quad-compensator workload's noise."""
    sys.path.insert(0, str(SRC))
    import quad_workload
    import svie

    return quad_workload.solve_paths(svie.example_coefficients(0.1, 2.0), seed, size.steps, size.paths)


def check_quad(seed: int, size: Size, out: Path, output: str) -> str | None:
    got = json.loads((out / "paths.json").read_text(encoding="utf-8"))
    want = closed_form_paths(seed, size)
    if len(got) != len(want):
        return f"{len(got)} paths, expected {len(want)}"
    for idx, (g, w) in enumerate(zip(got, want)):
        if (g is None) != (w is None) or not all(_close(a, b, QUAD_REL_TOL) for a, b in zip(g or [], w or [])):
            return f"path {idx} differs from the closed-form solve beyond relative {QUAD_REL_TOL}"
    return None


def expect_simulate(size: Size, out: Path) -> dict[str, float]:
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    # one sampled noise path per path; rows_swept assumes no path exploded
    expected = {"grid_noise.sample_calls": size.paths, "solver.exploded_paths": summary["exploded_paths"]}
    if summary["exploded_paths"] == 0:
        expected["solver.rows_swept"] = size.paths * size.steps
    return expected


def expect_verify(size: Size, out: Path) -> dict[str, float]:
    # the moment ensemble and picard_gap each sample every path once, and
    # picard_gap sweeps each path twice (iterates 1 and 2)
    return {"grid_noise.sample_calls": 2 * size.paths, "solver.picard_sweeps": 2 * size.paths}


def expect_quad(size: Size, out: Path) -> dict[str, float]:
    expected = {"grid_noise.sample_calls": size.paths}
    if None not in json.loads((out / "paths.json").read_text(encoding="utf-8")):
        # one compensator cell per (row i, column j <= i) of every path
        expected["grid_noise.compensator_elems"] = size.paths * size.steps * (size.steps + 1) // 2
    return expected


def quad_command(seed: int, size: Size, out: Path) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    return [str(BENCH / "quad_workload.py"), "--seed", str(seed), "--steps", str(size.steps),
            "--paths", str(size.paths), "--out", str(out / "paths.json")]  # fmt: skip


WORKLOADS = {
    w.name: w
    for w in (
        # simulate: `svie simulate`, example model, 256 steps x 500 paths, one
        # thread.  About 90% of it is the per-path row sweep
        # (ensemble_simulate -> direct_recursion), 7% CSV/JSON output, 2%
        # noise sampling, no quadrature.  The workload where a path-batched
        # row kernel and output formatting show, and the single-threaded
        # baseline.
        Workload(
            "simulate", Size(256, 500), Size(16, 8), svie_command("simulate", 1), check_simulate, expect_simulate
        ),
        # verify: `svie verify`, linear modulus, 128 steps x 200 paths, two
        # threads.  About 70% is mark-space quadrature (2001
        # LevyMeasure.integrate calls in the two audits), 15% single-path
        # Picard sweeps in picard_gap, 7% the Doob builders, the rest the
        # moment ensemble on the thread pool.  The row kernel does little
        # here and vectorized quadrature most; it also exercises --threads.
        Workload("verify", Size(128, 200), Size(16, 20), svie_command("verify", 2), check_verify, expect_verify),
        # quad-compensator: the Python API.  direct_recursion on the example
        # model without its closed-form compensator, 32 steps x 4 lineages,
        # in its own process.  The only route into compensator_integral's
        # one-quad-per-(row, column) fallback, because every CLI model has a
        # closed form: the n^2 cliff vectorized quadrature targets.
        Workload("quad-compensator", Size(32, 4), Size(4, 2), quad_command, check_quad, expect_quad),
        # No `svie picard` workload: its sweep count changes with the seed
        # (121-144 at 1024 steps), and a fourth workload leaves too few runs
        # per workload within the time the whole benchmark may take.  Picard
        # sweeps are still timed in verify's picard_gap.
    )
}

# Which per-layer metrics should move wall_s on which workload, and where a
# change to that layer is predicted to change nothing.  A later change that
# claims a gain on a layer checks the "no_change" workloads for regressions.
PREDICTIONS = {
    "solver.ensemble_s solver.self_s solver.path_ms_p50 solver.path_ms_p98": {
        "moves": ["simulate"],
        "no_change": ["quad-compensator"],
    },
    "solver.picard_s solver.picard_sweeps solver.sweep_ms": {
        "moves": ["verify"],
        "no_change": ["simulate", "quad-compensator"],
        "note": "measured on the two Picard sweeps per path of verify's picard_gap",
    },
    "solver.rows_swept solver.row_cells solver.exploded_paths": {"moves": ["simulate"], "no_change": []},
    "coefficients.kernel_calls coefficients.kernel_elems_per_call": {
        "moves": ["simulate"],
        "no_change": [],
        "note": "the kernel calls of verify's two audits are predicted unchanged",
    },
    "coefficients.audit_growth_s coefficients.audit_modulus_s": {
        "moves": ["verify"],
        "no_change": ["simulate", "quad-compensator"],
    },
    "grid_noise.integrate_s grid_noise.integrate_calls": {
        "moves": ["verify", "quad-compensator"],
        "no_change": ["simulate"],
    },
    "grid_noise.compensator_s grid_noise.compensator_elems": {
        "moves": ["quad-compensator"],
        "no_change": ["simulate", "verify"],
    },
    "grid_noise.sample_s grid_noise.sample_calls": {"moves": ["simulate"], "no_change": ["quad-compensator"]},
    "analysis.picard_gap_s analysis.doob_s analysis.moment_check_s": {
        "moves": ["verify"],
        "no_change": ["simulate", "quad-compensator"],
    },
    "cli.main_s cli.self_s cli.artifact_bytes cli.write_mb_per_s": {
        "moves": ["simulate"],
        "no_change": ["quad-compensator"],
    },
    "process.cpu_s process.cpu_util process.tracing_overhead_s": {"moves": ["verify"], "no_change": []},
}


# --- measurement -------------------------------------------------------------


def environment() -> dict:
    """Where the numbers came from: cores, versions, revision of the code."""

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    def git(*args: str) -> str | None:
        # the ceiling keeps git from adopting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def quartile_spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 2 values)."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


class Runner:
    """Runs one workload repeatedly and counts the runs whose output is wrong."""

    def __init__(self, workload: Workload, seed: int, size: Size):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.dir = WORK / workload.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.trace_file = self.dir / "trace.json"
        self.attempted = 0
        self.failed = 0

    def once(self, trace_mode: str | None = None) -> tuple[ChildRun, bool]:
        """One run; with ``trace_mode`` (spans or kernels) under tracer.py, writing ``trace_file``."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = self.workload.command(self.seed, self.size, out)
        if trace_mode is not None:
            self.trace_file.unlink(missing_ok=True)
            argv = [str(BENCH / "tracer.py"), trace_mode, str(self.trace_file), *argv]
        run = run_child(argv, self.dir / "child.log")
        reason = f"exit code {run.code}" if run.code != 0 else None
        if reason is None:
            try:
                reason = self.workload.check(self.seed, self.size, out, run.output)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
                reason = f"unreadable output: {err!r}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"{self.workload.name}: run {self.attempted} failed: {reason}\n{run.output[-2000:]}", file=sys.stderr)
        return run, reason is None

    def artifact_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.dir / "out").rglob("*") if p.is_file())


def timed_probe(runner: Runner, argv: list[str], name: str) -> float:
    probe = run_child(argv, runner.dir / f"{name}.log")
    if probe.code != 0:
        raise RuntimeError(f"{name} probe failed with exit code {probe.code}:\n{probe.output[-2000:]}")
    return probe.wall_s


def setup_probe(runner: Runner) -> float:
    return timed_probe(runner, [str(BENCH / "setup_probe.py"), str(runner.size.steps)], "setup")


def calibration(runner: Runner) -> float:
    return timed_probe(runner, [str(BENCH / "calibrate.py")], "calibrate")


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # one untimed probe of each kind first: it compiles bytecode and pulls
    # numpy and scipy into the page cache, costs a user pays once, not on
    # every call
    setup_probe(runner)
    calibrations = [calibration(runner)]
    setups, runs, oks = [], [], []
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_PROBES:
            setups.append(setup_probe(runner))
        run, ok = runner.once()
        runs.append(run)
        oks.append(ok)
        calibrations.append(calibration(runner))
        elapsed = time.perf_counter() - start
        # stop when one more run of typical length would overrun the budget
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    # run i (and set-up probe i) lies between calibrations i and i + 1
    scales = [2 * CALIBRATION_REF_S / (before + after) for before, after in zip(calibrations, calibrations[1:])]
    timed = [i for i, ok in enumerate(oks) if ok] or list(range(len(runs)))
    metrics = {
        "wall_s": statistics.median(runs[i].wall_s * scales[i] for i in timed),
        "setup_s": statistics.median(setup * scale for setup, scale in zip(setups, scales)),
        "peak_rss_mb": statistics.median(runs[i].rss_mb for i in timed),
        "pass_share": (runner.attempted - runner.failed) / runner.attempted,
    }
    samples = {
        "raw_wall_s": [runs[i].wall_s for i in timed],
        "raw_setup_s": setups,
        "calibration_s": calibrations,
        "peak_rss_mb": [runs[i].rss_mb for i in timed],
    }
    return metrics, samples


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # kernel counts are deterministic for a seed, so one counting run serves
    # every pair; the timed runs carry spans only
    runner.once("kernels")
    kernel_counts = json.loads(runner.trace_file.read_text(encoding="utf-8"))["counts"]
    pairs: list[dict] = []
    self_time_ok = True
    mismatches: list[str] = []
    start = time.perf_counter()
    while True:
        plain, _ = runner.once()
        traced, ok = runner.once("spans")
        doc = json.loads(runner.trace_file.read_text(encoding="utf-8"))
        layer = tracer.layer_metrics(doc, kernel_counts)
        layer["cli.artifact_bytes"] = runner.artifact_bytes() if layer["cli.main_s"] else 0
        layer["cli.write_mb_per_s"] = (
            layer["cli.artifact_bytes"] / 1e6 / layer["cli.self_s"] if layer["cli.self_s"] > 0 else 0.0
        )
        layer["process.cpu_s"] = plain.cpu_s
        layer["process.cpu_util"] = plain.cpu_s / plain.wall_s
        layer["process.tracing_overhead_s"] = traced.wall_s - plain.wall_s
        pairs.append(layer)
        self_time_ok = self_time_ok and all(
            total <= doc["wall_s"] for total in tracer.thread_self_sums(doc).values()
        )
        if ok:
            expected = runner.workload.expect(runner.size, runner.dir / "out")
            mismatches += [f"{key} = {layer[key]}, expected {want}" for key, want in expected.items()
                           if layer[key] != want]  # fmt: skip
        elapsed = time.perf_counter() - start
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in pairs) for name in tracer.LAYER_UNITS}
    return metrics, {"pairs": len(pairs), "self_time_within_wall": self_time_ok, "counter_mismatches": mismatches}


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, dict]:
    workload = WORKLOADS[name]
    master = 1 + seed % SEED_SPAN
    runner = Runner(workload, master, workload.smoke if smoke else workload.full)
    if trace:
        values, samples = measure_traced(runner, seconds)
        units = tracer.LAYER_UNITS
    else:
        values, samples = measure_end_to_end(runner, seconds)
        units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    detail = {"workload": name, "seed": seed, "master_seed": master, "size": vars(runner.size), **samples}
    return result, detail


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced; assert the report and the counters."""
    problems = []
    for name in WORKLOADS:
        for trace, units in ((False, END_TO_END_UNITS), (True, tracer.LAYER_UNITS)):
            result, detail = run_benchmark(name, 0, 0.0, trace, smoke=True)
            metrics = result["metrics"]
            tag = f"{name} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{tag}: output check failed")
            for key, unit in units.items():
                entry = metrics.get(key)
                if entry is None or entry.get("unit") != unit or not math.isfinite(entry.get("value", math.nan)):
                    problems.append(f"{tag}: metric {key} missing, without unit {unit!r}, or not finite")
            if trace and not detail["self_time_within_wall"]:
                problems.append(f"{tag}: span self times exceed the traced wall time on some thread")
            if trace:
                problems += [f"{tag}: counter {m}" for m in detail["counter_mismatches"]]
            print(f"{tag}: {json.dumps(result)}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def stop_on_sigterm(signum, frame):
    # unwinds through run_child, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload; asserts the report")
    args = parser.parse_args()
    if not (SRC / "svie" / "__init__.py").is_file():
        print(f"no svie sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"env": environment(), **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
