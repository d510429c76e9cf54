"""The benchmark's tracer runs through its documented command line.

perfbench/tracer.py wraps svie functions by name, so a refactor that
deletes or renames one of them must fail here.  Counter values are not
asserted: they belong to the benchmark's own smoke test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from svie.cli import RunConfig, emit_config

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def tiny_verify(tmp_path):
    config = tmp_path / "verify.cfg"
    config.write_text(emit_config(RunConfig(steps=4, paths=2)), encoding="utf-8")
    return ["-m", "svie", "verify", "--config", str(config), "--out", str(tmp_path / "out")]


def tiny_simulate(tmp_path):
    config = tmp_path / "simulate.cfg"
    config.write_text(emit_config(RunConfig(steps=4, paths=2)), encoding="utf-8")
    return ["-m", "svie", "simulate", "--config", str(config), "--out", str(tmp_path / "out")]


def tiny_picard(tmp_path):
    # the one run through the tracer's cli.sample_noise_path wrapper
    config = tmp_path / "picard.cfg"
    config.write_text(emit_config(RunConfig(steps=4, paths=2)), encoding="utf-8")
    return ["-m", "svie", "picard", "--config", str(config), "--out", str(tmp_path / "out")]


def tiny_quad(tmp_path):
    return [str(PERFBENCH / "quad_workload.py"), "--seed", "0", "--steps", "4", "--paths", "2",
            "--out", str(tmp_path / "paths.json")]  # fmt: skip


@pytest.mark.parametrize(
    "mode,workload",
    [
        ("spans", tiny_verify),
        ("spans", tiny_simulate),
        ("spans", tiny_picard),
        ("spans", tiny_quad),
        ("kernels", tiny_verify),
        ("kernels", tiny_simulate),
        ("kernels", tiny_picard),
        ("kernels", tiny_quad),
    ],
    ids=["spans-verify", "spans-simulate", "spans-picard", "spans-quad", "kernels-verify", "kernels-simulate",
         "kernels-picard", "kernels-quad"],  # fmt: skip
)
def test_tracer_runs_a_tiny_workload(mode, workload, tmp_path, child_env):
    trace = tmp_path / "trace.json"
    command = [sys.executable, str(PERFBENCH / "tracer.py"), mode, str(trace), *workload(tmp_path)]
    proc = subprocess.run(command, capture_output=True, text=True, env=child_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text(encoding="utf-8"))
    # spans mode records spans; kernels mode records only kernel counters
    assert doc["spans"] if mode == "spans" else doc["counts"]
