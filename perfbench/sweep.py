"""Run the benchmark twice over several seeds and summarise it as a BENCH file.

    python3 perfbench/sweep.py --out perfbench/BENCH_baseline.json

Run from the repository root.  Each (seed, workload) is one
``perfbench/run.py`` process, started as BENCHMARK.json's command specifies;
seeds are the outer loop so slow drift of the machine spreads over every
workload.  The whole sweep over seeds 0..9 is made twice, as two sets.
For each end-to-end metric and set the summary gives the median, the
quartiles and their distance as a share of the median, and how far the
first seed's value lies from the median, each next to the bound in
BENCHMARK.json; then the relative difference between the two sets'
medians.  Two series without a bound sit next to them: raw_wall_s, the
median wall time before the calibration scaling of run.py, and
run_elapsed_s, how long each run.py process took.  One traced run per workload (on the first seed) adds the
per-layer metrics, which are reconciled with the figures measured before
the benchmark existed.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SETS = 2
# ten seeds per set, as in the acceptance runs of the benchmark
SEEDS = range(10)

# Figures measured before this benchmark, in seconds: (figure, source, value,
# workload whose traced run measures it now, per-layer metrics -> seconds).
EARLIER_FIGURES = (
    ("direct_recursion per path, example model, n = 256", "ROADMAP Baseline", 7.3e-3, "simulate",
     lambda layer: layer["solver.path_ms_p50"] / 1e3),
    ("audit_linear_growth + audit_modulus", "ROADMAP Baseline", 6.2, "verify",
     lambda layer: layer["coefficients.audit_growth_s"] + layer["coefficients.audit_modulus_s"]),
    ("Doob ensemble builders (100k paths each)", "ROADMAP Baseline", 0.6, "verify",
     lambda layer: layer["analysis.doob_s"]),
    ("compensator quadrature fallback per path, n = 32", "ROADMAP Baseline", 1.5, "quad-compensator",
     lambda layer: layer["solver.path_ms_p50"] / 1e3),
    ("direct_recursion per path, n = 256", "benchmark definition (scratch trace)", 5.6e-3, "simulate",
     lambda layer: layer["solver.path_ms_p50"] / 1e3),
)  # fmt: skip


def invoke(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    proc = subprocess.Popen(argv, cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=300)
    except BaseException:
        proc.terminate()  # run.py stops its own child on SIGTERM
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{stderr[-3000:]}")
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": run.quartile_spread(values),
        "first_seed_vs_median": values[0] / median - 1.0 if median else 0.0,
        "bound": bound,
        "values": values,
    }


def reconcile(entries: dict) -> list[dict]:
    """Compare each earlier figure with the traced run, against the workload's wall_s spread."""
    rows = []
    for figure, source, then, workload, now_of in EARLIER_FIGURES:
        entry = entries[workload]
        now = now_of(entry["per_layer"])
        walls = [v for one in entry["sets"] for v in one["wall_s"]["values"]]
        relative, spread = now / then - 1.0, run.quartile_spread(walls)
        rows.append({
            "figure": figure,
            "source": source,
            "then_s": then,
            "now_s": now,
            "workload": workload,
            "relative": relative,
            "wall_s_spread": spread,
            "verdict": "agrees" if abs(relative) <= spread else "disagrees by more than the spread",
        })  # fmt: skip
    return rows


def main() -> None:
    signal.signal(signal.SIGTERM, run.stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    samples = {w: [{} for _ in range(SETS)] for w in run.WORKLOADS}
    attempted = {w: 0 for w in run.WORKLOADS}
    failed = {w: 0 for w in run.WORKLOADS}
    for index in range(SETS):
        for seed in SEEDS:
            for workload in run.WORKLOADS:
                started = time.perf_counter()
                result, detail = invoke(workload, seed, seconds, 0)
                samples[workload][index].setdefault("run_elapsed_s", []).append(time.perf_counter() - started)
                attempted[workload] += result["attempted"]
                failed[workload] += result["failed"]
                for name, metric in result["metrics"].items():
                    samples[workload][index].setdefault(name, []).append(metric["value"])
                # the uncalibrated median, to show what the calibration removes
                raw = statistics.median(detail["raw_wall_s"])
                samples[workload][index].setdefault("raw_wall_s", []).append(raw)
                print(f"set {index + 1} seed {seed} {workload}: {json.dumps(result['metrics'])}", flush=True)

    report = {
        "env": run.environment(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "sets": SETS,
        "predictions": run.PREDICTIONS,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        sets = [{name: summarise(values, bounds.get(name)) for name, values in one.items()} for one in samples[workload]]
        agreement = {}
        for name, bound in bounds.items():
            first, second = (one[name]["median"] for one in sets)
            relative = second / first - 1.0
            agreement[name] = {"relative": relative, "bound": bound, "within": abs(relative) <= bound}
            spreads = " ".join(f"{one[name]['spread']:.3f}" for one in sets)
            print(f"{workload:17s} {name:12s} medians {first:.4f} {second:.4f} ({relative:+.3f}) spreads {spreads}"
                  f" bound {bound}")  # fmt: skip
        result, detail = invoke(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = {
            "size": vars(run.WORKLOADS[workload].full),
            "attempted": attempted[workload],
            "failed": failed[workload],
            "sets": sets,
            "set_agreement": agreement,
            "per_layer": {name: m["value"] for name, m in result["metrics"].items()},
            "per_layer_runs": detail["pairs"],
        }
    report["reconciliation"] = {
        "note": (
            "now_s comes from the traced run's spans, which carry no kernel counters; kernel calls are "
            "counted in a separate run. A figure agrees when it lies within the workload's wall_s spread "
            "over both sets."
        ),
        "rows": reconcile(report["workloads"]),
    }
    for row in report["reconciliation"]["rows"]:
        print(f"{row['figure']}: {row['then_s']:.4g} s -> {row['now_s']:.4g} s ({row['relative']:+.3f})"
              f" {row['verdict']}")  # fmt: skip
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
