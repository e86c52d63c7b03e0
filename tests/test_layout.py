"""Module layout rules for the satedge package, checked on the source AST.

No module imports another module's private (`_`-prefixed) name, and no
function imports from the package inside its body: every dependency
between modules is public and visible at the top of the importing file.
No module or script uses `assert`, which `python -O` strips: checks raise a
named error or count as a failure instead.  Importing the package and its
CLI loads no `multiprocessing`: only a call that starts a worker pool does.
Every private function, class and method is used somewhere in the package.
The exact-arithmetic modules hold no float literal and call no `float(...)`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "satedge"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _package_imports(tree):
    """(node, inside a function body) for each relative import in the tree."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level > 0:
                found.append((child, in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def test_modules_found():
    assert {path.name for path in MODULES} >= {"graph.py", "search.py", "packing.py", "verify.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_private_or_function_local_package_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node, in_function in _package_imports(tree):
        where = f"{path.name}:{node.lineno}"
        private = [alias.name for alias in node.names if alias.name.startswith("_")]
        if private:
            problems.append(f"{where} imports private {', '.join(private)} from .{node.module or ''}")
        if in_function:
            problems.append(f"{where} imports from .{node.module or ''} inside a function")
    assert not problems, "\n".join(problems)


def _private_definitions(tree):
    """Names of the module's `_`-prefixed top-level functions and classes and
    of its classes' `_`-prefixed methods, dunder names left out."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for node in tree.body:
        if isinstance(node, defs):
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [item.name for item in node.body if isinstance(item, defs)]
    return [name for name in found if name.startswith("_") and not name.endswith("__")]


def test_no_unused_private_code():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in MODULES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{name}: {item}" for name, tree in trees.items() for item in _private_definitions(tree) if item not in used
    ]
    assert not unused, "never referenced in the package:\n" + "\n".join(unused)


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda path: path.stem)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on line(s) {lines}"


EXACT_MODULES = ("formulas.py", "constructions.py", "graph.py", "search.py", "saturation.py", "packing.py")


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_use_no_floats(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{name}:{node.lineno} float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{name}:{node.lineno} float(...) call")
    assert not found, "\n".join(found)


def test_import_loads_no_multiprocessing():
    code = "import sys, satedge, satedge.cli\nprint('multiprocessing' in sys.modules)\n"
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
