"""The benchmark's own test: its smoke mode must pass.

    python -m pytest perfbench

Smoke mode runs every workload at a tiny size, untraced and traced, and
fails if an output check fails, a metric is missing or lacks its unit, the
spans' self times on some thread add up to more than the traced wall time,
or a traced counter (sampled paths, swept rows, Picard sweeps, compensator
cells) differs from what the workload's size and output imply.  The
repository's test suite does not collect this file.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_reports_every_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.strip().endswith("smoke: ok")


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
