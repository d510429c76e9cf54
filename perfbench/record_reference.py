"""Record the simulate workload's reference moments in perfbench/reference.json.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose numbers are the reference.
For every master seed the benchmark can use and both simulate sizes (full
and smoke) it runs ``svie simulate`` in this process and keeps the exploded
path count and every 16th grid point of the mean and second moment.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
from svie import cli  # noqa: E402


def main() -> None:
    workload = run.WORKLOADS["simulate"]
    out = run.WORK / "reference"
    out.mkdir(parents=True, exist_ok=True)
    reference = {}
    for size in (workload.full, workload.smoke):
        table = reference[f"{size.steps}x{size.paths}"] = {}
        for seed in range(1, run.SEED_SPAN + 1):
            argv = workload.command(seed, size, out)
            if cli.main(argv[2:]) != 0:
                sys.exit(f"svie simulate failed for seed {seed}")
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            table[str(seed)] = run.simulate_summary_digest(summary, size.steps)
            print(f"{size.steps}x{size.paths} seed {seed}: exploded {summary['exploded_paths']}", flush=True)
    with open(run.BENCH / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
