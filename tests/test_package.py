"""The package namespace: exactly the modules' public names, and no CLI."""

import subprocess
import sys

import svie
from svie import analysis, coefficients, errors, grid_noise, solver

MODULES = (errors, grid_noise, coefficients, solver, analysis)


def test_package_exports_the_union_of_the_module_lists():
    # no duplicates, so no name is listed by two modules
    assert len(svie.__all__) == len(set(svie.__all__))
    assert set(svie.__all__) == {name for module in MODULES for name in module.__all__}


def test_package_names_are_the_defining_modules_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(svie, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_import_leaves_the_cli_unloaded(child_env):
    code = "import sys, svie\nprint('svie.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
