"""The package namespace: exactly the modules' public names, no CLI, and no unused import."""

import ast
import subprocess
import sys
from pathlib import Path

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
