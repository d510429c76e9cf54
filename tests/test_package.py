"""The package namespace: exactly the modules' public names, loaded only as a run uses them; no CLI, no unused import."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import svie
from svie import analysis, coefficients, errors, grid_noise, solver
from svie.cli import RunConfig, emit_config

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


def _annotation_names(tree):
    """Names read inside string annotations, such as ``coeffs: "CoefficientSet"``."""
    notes = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
    notes += [node.returns for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for sub in (sub for note in notes if note is not None for sub in ast.walk(note)):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from (n.id for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name))


def test_every_import_in_the_package_is_used():
    # a deliberate re-export carries "# noqa: F401" on its line
    unused = []
    for path in sorted(Path(svie.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_annotation_names(tree))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*")
            unused.extend(f"{path.name}:{node.lineno} {name}" for name in names if name not in used)
    assert not unused, f"imported and never used: {unused}"


# --- what each entry point loads (in fresh processes) ----------------------------


def _child(code: str, env: dict, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOADED = "print(sorted(name for name in sys.modules if name.startswith('svie.')))"


def test_a_bare_import_loads_no_module_of_the_package(child_env):
    assert _child(f"import sys, svie\n{LOADED}", child_env) == "[]"


def test_the_set_up_names_load_only_the_modules_they_need(child_env):
    code = f"import sys, svie\nsvie.build_grid(0.5, 4)\nsvie.coefficient_catalogue('example', 0.1, 2.0)\n{LOADED}"
    assert _child(code, child_env) == str(["svie.coefficients", "svie.errors", "svie.grid_noise"])


@pytest.mark.parametrize(
    ("command", "loads_analysis", "loads_formatter"),
    [("simulate", False, True), ("picard", False, False), ("verify", True, False)],
)
def test_only_verify_loads_the_analysis_layer(command, loads_analysis, loads_formatter, tmp_path, child_env):
    # and only simulate loads the paths.csv formatter
    config = tmp_path / "run.cfg"
    config.write_text(emit_config(RunConfig(steps=4, paths=2)), encoding="utf-8")
    code = "import sys\nfrom svie.cli import main\nmain(sys.argv[1:])\n"
    code += "print(['svie.analysis' in sys.modules, 'svie._csv_rows' in sys.modules])"
    out = _child(code, child_env, command, "--config", str(config), "--out", str(tmp_path / "out"))
    assert out.splitlines()[-1] == str([loads_analysis, loads_formatter])


def test_a_module_is_an_attribute_after_a_bare_import(child_env):
    code = "import svie\nprint(svie.analysis.doob_check is svie.doob_check, svie.solver.__name__)"
    assert _child(code, child_env) == "True svie.solver"


def test_dir_lists_every_public_name(child_env):
    code = "import svie\nprint(sorted(set(svie.__all__) - set(dir(svie))), len(svie.__all__))"
    assert _child(code, child_env) == f"[] {len(svie.__all__)}"


def test_star_import_binds_every_public_name(child_env):
    code = "from svie import *\nimport svie\nprint([name for name in svie.__all__ if name not in globals()])"
    assert _child(code, child_env) == "[]"


def test_a_dunder_probe_raises_and_loads_nothing(child_env):
    code = f"import sys, svie\nprint(hasattr(svie, '__wrapped__'))\n{LOADED}"
    assert _child(code, child_env) == "False\n[]"
