"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import svie


@pytest.fixture
def child_env() -> dict:
    """Environment for a child Python process that imports the same svie package as this one."""
    src = str(Path(svie.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
