"""The runtime depends on numpy alone: every import in the package is from the
standard library, numpy, or the package itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "orbitforge"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_modules(tree):
    """(top-level name, line) of every absolute import, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = [
        f"{path.name}:{line} imports {name}"
        for name, line in _imported_modules(tree)
        if name != "numpy" and name not in sys.stdlib_module_names
    ]
    assert not foreign


def test_the_walk_sees_imports_inside_functions():
    tree = ast.parse("def f():\n    from scipy import linalg\n    import numpy.linalg\n")
    assert list(_imported_modules(tree)) == [("scipy", 2), ("numpy", 3)]


def test_importing_the_package_loads_no_command_line_modules():
    # the command line and its config parsers load only with orbitforge.cli
    code = (
        "import sys, orbitforge; "
        "print(sorted({'orbitforge.cli', 'orbitforge.config', 'argparse', "
        "'configparser'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
