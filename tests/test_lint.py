"""Source checks: runtime invariants must survive ``python -O`` and reach
the CLI's JSON error contract, so no module of the package uses an
``assert`` statement or raises ``AssertionError``; and the runtime needs
the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

import substchaos

PACKAGE_DIR = Path(substchaos.__file__).parent
CHECKED_MODULES = sorted(path.name for path in PACKAGE_DIR.glob("*.py"))


def _assertion_sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


@pytest.mark.parametrize("module", CHECKED_MODULES)
def test_no_assertions_on_the_decision_path(module):
    path = PACKAGE_DIR / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{module}:{line}: {what}" for line, what in _assertion_sites(tree)]
    assert found == []


def test_lint_sees_both_forms():
    tree = ast.parse("assert x\nraise AssertionError\nraise AssertionError('m')\n")
    assert [line for line, _ in _assertion_sites(tree)] == [1, 2, 3]


def test_lint_checks_every_module():
    assert {"cli.py", "substitution.py", "tower.py"} <= set(CHECKED_MODULES)


def _foreign_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, name


def test_package_imports_only_stdlib():
    found = []
    for module in CHECKED_MODULES:
        path = PACKAGE_DIR / module
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{module}:{line}: {name}" for line, name in _foreign_imports(tree)]
    assert found == []
    probe = ast.parse("import json, numpy.linalg\nfrom . import x\nfrom scipy import y\n")
    assert [name for _, name in _foreign_imports(probe)] == ["numpy.linalg", "scipy"]
