"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script, child_env):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
