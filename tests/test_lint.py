"""Source checks: runtime invariants must survive ``python -O`` and reach
the CLI's JSON error contract, so no module of the package uses an
``assert`` statement or raises ``AssertionError``; the runtime needs
the standard library only; every cache of the package is bounded; no
decision module imports the simulator; no module of the package or of
the test suite imports a name it never reads; no function of the
package takes a parameter it never reads or one named ``budget`` (the
budgets are package constants), and no module imports a budget constant
by name, so every check reads the one binding at call time; and no module of the package
asks the stdlib for indented JSON (``json.dump``, ``json.dumps`` or
``JSONEncoder`` with ``indent``), which takes its pure-Python encoder,
so ``cli._emit`` stays the one writer of stdout documents; no module of
the package uses ``dataclasses.asdict``, which deep-copies every leaf of
a record; and no module of the package imports ``dataclasses``, whose
classes generate their methods at import and whose import loads
``inspect``, so a fresh ``import substchaos.cli`` loads neither.  Only
the two parsers of source text call ``Substitution.from_rules``;
every top-level function or class of the package is read by the package
or exported by it, so no library code serves the tests alone; and no code
but ``errors.charge`` raises a budget error; and no module of the
package reads a cache's ``__wrapped__``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import substchaos

from code_lines import code_lines

PACKAGE_DIR = Path(substchaos.__file__).parent
CHECKED_MODULES = sorted(path.name for path in PACKAGE_DIR.glob("*.py"))
TESTS_DIR = Path(__file__).parent


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    tree = _tree(PACKAGE_DIR / module)
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
        tree = _tree(PACKAGE_DIR / module)
        found += [f"{module}:{line}: {name}" for line, name in _foreign_imports(tree)]
    assert found == []
    probe = ast.parse("import json, numpy.linalg\nfrom . import x\nfrom scipy import y\n")
    assert [name for _, name in _foreign_imports(probe)] == ["numpy.linalg", "scipy"]


# The modules whose answers are exact: none may consult the simulator,
# at module level or inside a function.
DECISION_MODULES = ("substitution", "reduction", "streams", "pairs", "odometer")


def _simulator_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            names = [".".join(module + [alias.name]) for alias in node.names]
        else:
            continue
        if any("simulate" in name.split(".") for name in names):
            yield node.lineno


def test_decision_modules_never_import_the_simulator():
    found = []
    for module in DECISION_MODULES:
        tree = _tree(PACKAGE_DIR / f"{module}.py")
        found += [f"{module}.py:{line}" for line in _simulator_imports(tree)]
    assert found == []
    probe = ast.parse(
        "from .simulate import empirical_class\n"
        "from . import simulate, streams\n"
        "import substchaos.simulate\n"
        "from substchaos.simulate import x\n"
        "def f():\n    from .simulate import y\n"
        "from .streams import simulated\n"
    )
    assert list(_simulator_imports(probe)) == [1, 2, 3, 4, 6]


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    # the package's __init__ imports only to re-export
    paths = [PACKAGE_DIR / module for module in CHECKED_MODULES if module != "__init__.py"]
    paths += sorted(TESTS_DIR.glob("*.py"))
    found = []
    for path in paths:
        found += [
            f"{path.parent.name}/{path.name}:{line}: {name}"
            for line, name in _unused_imports(_tree(path))
        ]
    assert found == []
    probe = ast.parse(
        "from __future__ import annotations\n"
        "import os, json, xml.dom\n"
        "from pathlib import Path, PurePath as P\n"
        "def f():\n    import re\n    return json.dumps(P), xml\n"
    )
    assert [name for _, name in _unused_imports(probe)] == ["os", "Path", "re"]


# Decorators the package may use: ``memoised`` (the table cache) and a
# bounded ``lru_cache`` are its only memos.
ALLOWED_DECORATORS = {
    "classmethod", "lru_cache", "memoised", "property", "staticmethod", "wraps",
}
UNBOUNDED_MEMOS = {"cache", "cached_property"}


def _tail(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded_caches(tree):
    """(line, what) for every memo that may grow without bound and every
    decorator outside ``ALLOWED_DECORATORS``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _tail(node.func) == "lru_cache":
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if not sizes or (isinstance(sizes[0], ast.Constant) and sizes[0].value is None):
                yield node.lineno, "lru_cache without a bound"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                called = isinstance(dec, ast.Call)
                name = _tail(dec.func if called else dec)
                if name == "lru_cache" and not called:
                    yield dec.lineno, "lru_cache without a bound"
                elif name not in ALLOWED_DECORATORS:
                    yield dec.lineno, f"decorator {name}"
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in UNBOUNDED_MEMOS:
                    yield node.lineno, f"functools.{alias.name}"
        elif isinstance(node, ast.Attribute) and _tail(node.value) == "functools":
            if node.attr in UNBOUNDED_MEMOS:
                yield node.lineno, f"functools.{node.attr}"


def test_caches_are_bounded():
    found = []
    for module in CHECKED_MODULES:
        tree = _tree(PACKAGE_DIR / module)
        found += [f"{module}:{line}: {what}" for line, what in _unbounded_caches(tree)]
    assert found == []
    probe = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache, wraps\n"
        "@lru_cache(maxsize=SIZE)\ndef a(s): pass\n"
        "@memoised\ndef b(s): pass\n"
        "@lru_cache(maxsize=None)\ndef c(s): pass\n"
        "@functools.lru_cache(None)\ndef d(s): pass\n"
        "@lru_cache\ndef e(s): pass\n"
        "@functools.cached_property\ndef f(s): pass\n"
        "@remember\ndef g(s): pass\n"
        "h = lru_cache(maxsize=None)(a)\n"
    )
    assert sorted(_unbounded_caches(probe)) == [
        (2, "functools.cache"),
        (7, "lru_cache without a bound"),
        (9, "lru_cache without a bound"),
        (11, "lru_cache without a bound"),
        (13, "decorator cached_property"),
        (13, "functools.cached_property"),
        (15, "decorator remember"),
        (17, "lru_cache without a bound"),
    ]


def _wrapped_reads(tree):
    """Lines that read ``__wrapped__``, as an attribute or by its name
    as a string (``getattr``)."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__wrapped__") or (
            isinstance(node, ast.Constant) and node.value == "__wrapped__"
        ):
            yield node.lineno


def test_no_module_reads_wrapped():
    # a cache's ``__wrapped__`` is whatever its last wrapper says: once a
    # wrapper installed from outside (a tracer) copies it with
    # ``functools.wraps``, it is the cache itself, so an uncached builder
    # is called by its own name
    found = []
    for module in CHECKED_MODULES:
        found += [f"{module}:{line}" for line in _wrapped_reads(_tree(PACKAGE_DIR / module))]
    assert found == []
    probe = ast.parse(
        "f.__wrapped__(s)\n"
        "getattr(f, '__wrapped__')\n"
        "'a docstring that names __wrapped__'\n"
        "f.__wrapped_(s)\n"
    )
    assert list(_wrapped_reads(probe)) == [1, 2]


# The parameters a function may leave unread: the key of the table cache
# and an argument kept for callers that pass it.
UNREAD_PARAMETERS_ALLOWED = {("substitution.py", "_tables", "subst"),
                             ("streams.py", "enumerate_fiber", "radius")}


def _functions(tree):
    """Every function, method and lambda of ``tree`` with its parameter names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            yield node, params


def _unread_parameters(tree):
    """(line, function, parameter) for every parameter that its function,
    nested functions included, never reads."""
    for node, params in _functions(tree):
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            name.id
            for stmt in body
            for name in ast.walk(stmt)
            if isinstance(name, ast.Name) and not isinstance(name.ctx, ast.Store)
        }
        for param in params:
            if param not in read:
                yield node.lineno, getattr(node, "name", "<lambda>"), param


def test_no_unread_parameters():
    found = []
    for module in CHECKED_MODULES:
        for line, func, param in _unread_parameters(_tree(PACKAGE_DIR / module)):
            if (module, func, param) not in UNREAD_PARAMETERS_ALLOWED:
                found.append(f"{module}:{line}: {func}({param})")
    assert found == []
    probe = ast.parse(
        "def f(a, b, *c, d=1, **e):\n    return a + d\n"
        "def g(x):\n    def h(y):\n        return x\n    return h\n"
        "k = lambda u, v: u\n"
        "class C:\n    def m(self, w):\n        w = 1\n        return self\n"
    )
    assert sorted(_unread_parameters(probe)) == [
        (1, "f", "b"), (1, "f", "c"), (1, "f", "e"), (4, "h", "y"),
        (7, "<lambda>", "v"), (9, "m", "w"),
    ]


def _budget_parameters(tree):
    """(line, function) for every function, method or lambda of ``tree``
    that takes a parameter named ``budget``."""
    for node, params in _functions(tree):
        if "budget" in params:
            yield node.lineno, getattr(node, "name", "<lambda>")


def test_no_budget_parameters():
    # the budgets are package constants that each check reads at call
    # time, so no caller can raise or lower one
    found = []
    for module in CHECKED_MODULES:
        for line, func in _budget_parameters(_tree(PACKAGE_DIR / module)):
            found.append(f"{module}:{line}: {func}(budget)")
    assert found == []
    probe = ast.parse(
        "def f(a, budget=10):\n    return a\n"
        "def g(*, budget):\n    return budget\n"
        "def h(*budget):\n    return budget\n"
        "k = lambda budget: budget\n"
        "class C:\n    def m(self, budgets, budget_left):\n        return self\n"
        "    def n(self, **budget):\n        return self\n"
    )
    assert sorted(_budget_parameters(probe)) == [
        (1, "f"), (3, "g"), (5, "h"), (7, "<lambda>"), (11, "n"),
    ]


BUDGETS = {"DEFAULT_WORD_BUDGET", "SIMPLIFIABILITY_BUDGET", "CERTIFICATE_WORD_CAP"}


def _budget_imports(tree):
    """(line, name) for every budget constant, or ``*``, that ``tree``
    imports by name from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in BUDGETS or alias.name == "*":
                    yield node.lineno, alias.name


def test_budgets_are_read_from_their_module():
    # a name imported from another module is a copy bound at import, so a
    # check that read it would not see the module's constant change
    found = []
    for module in CHECKED_MODULES:
        for line, name in _budget_imports(_tree(PACKAGE_DIR / module)):
            found.append(f"{module}:{line}: {name}")
    assert found == []
    probe = ast.parse(
        "from .substitution import DEFAULT_WORD_BUDGET, iterate\n"
        "from . import substitution\n"
        "from .reduction import SIMPLIFIABILITY_BUDGET as budget\n"
        "def f():\n    from .pairs import CERTIFICATE_WORD_CAP\n"
        "x = substitution.DEFAULT_WORD_BUDGET\n"
        "from .substitution import *\n"
        "import substchaos.substitution\n"
    )
    assert sorted(_budget_imports(probe)) == [
        (1, "DEFAULT_WORD_BUDGET"), (3, "SIMPLIFIABILITY_BUDGET"), (5, "CERTIFICATE_WORD_CAP"),
        (7, "*"),
    ]


BUDGET_ERRORS = {"BudgetExceededError", "SearchBudgetError"}
# the one function that may raise a budget error
GATE = ("errors.py", "charge")


def _budget_raises(tree):
    """(line, enclosing function) for every ``raise`` of a budget error
    class in ``tree``; the function is None at module level."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _tail(exc) in BUDGET_ERRORS:
                yield node.lineno, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_budget_errors_are_raised_by_the_gate_alone():
    # every size check calls errors.charge, so the rule (a size equal to
    # its limit is allowed) and the error classes live in one place
    found = []
    for module in CHECKED_MODULES:
        for line, function in _budget_raises(_tree(PACKAGE_DIR / module)):
            if (module, function) != GATE:
                found.append(f"{module}:{line}")
    assert found == []
    probe = ast.parse(
        "raise BudgetExceededError\n"
        "def charge(amount, limit, message, error=BudgetExceededError):\n"
        "    raise error(message)\n"
        "class C:\n"
        "    def spend(self):\n"
        "        raise errors.SearchBudgetError('m')\n"
        "def f():\n"
        "    raise PreconditionError('m')\n"
        "def g():\n"
        "    raise BudgetExceededError('m') from None\n"
    )
    assert _budget_raises(probe) == [(1, None), (6, "spend"), (10, "g")]


INDENTING_CALLS = {"dump", "dumps", "JSONEncoder"}


def _indented_json_calls(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _tail(node.func) in INDENTING_CALLS:
            if any(k.arg == "indent" for k in node.keywords):
                yield node.lineno


def test_no_indented_json_outside_the_writer():
    found = []
    for module in CHECKED_MODULES:
        found += [f"{module}:{line}" for line in _indented_json_calls(_tree(PACKAGE_DIR / module))]
    assert found == []
    probe = ast.parse(
        "import json\nfrom json import dumps\n"
        "json.dumps(d, sort_keys=True)\n"
        "json.dumps(d, indent=2)\n"
        "dumps(d, indent=None)\n"
        "json.dump(d, fh, indent=2)\n"
        "json.JSONEncoder(indent=1).encode(d)\n"
        "json.loads(s)\n"
    )
    assert list(_indented_json_calls(probe)) == [4, 5, 6, 7]


def _asdict_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "asdict" for alias in node.names):
                yield node.lineno
        elif isinstance(node, (ast.Name, ast.Attribute)) and _tail(node) == "asdict":
            yield node.lineno


def test_no_dataclasses_asdict():
    found = []
    for module in CHECKED_MODULES:
        found += [f"{module}:{line}" for line in _asdict_uses(_tree(PACKAGE_DIR / module))]
    assert found == []
    probe = ast.parse(
        "import dataclasses\nfrom dataclasses import asdict, dataclass\n"
        "dataclasses.asdict(r)\n"
        "asdict(r)\n"
        "dict(vars(r))\n"
        "list(map(asdict, rs))\n"
        "dataclasses.astuple(r)\n"
    )
    assert sorted(set(_asdict_uses(probe))) == [2, 3, 4, 6]


def _dataclasses_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "dataclasses" for name in names):
            yield node.lineno


def test_no_module_imports_dataclasses():
    found = []
    for module in CHECKED_MODULES:
        found += [f"{module}:{line}" for line in _dataclasses_imports(_tree(PACKAGE_DIR / module))]
    assert found == []
    probe = ast.parse(
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "import json, dataclasses as dc\n"
        "from collections import namedtuple\n"
        "def f():\n    from dataclasses import field\n"
    )
    assert list(_dataclasses_imports(probe)) == [1, 2, 3, 6]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so only the package's own imports count
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE_DIR.parent)!r})\n"
        "import substchaos.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


# ``Substitution.from_rules`` reads decimal or text tokens back into letter
# codes; only the two parsers of source text need that.  Code that builds
# a substitution from its own letter codes calls ``Substitution`` on the
# chr-coded images.
FROM_RULES_CALLERS = {("substitution.py", "parse_substitution"), ("substitution.py", "_parse_json")}


def _from_rules_calls(tree):
    """(line, enclosing function) for every call of ``*.from_rules``; the
    function is None at module level."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _tail(node.func) == "from_rules":
            yield node.lineno, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_only_the_parsers_call_from_rules():
    found = []
    for module in CHECKED_MODULES:
        for line, function in _from_rules_calls(_tree(PACKAGE_DIR / module)):
            if (module, function) not in FROM_RULES_CALLERS:
                found.append(f"{module}:{line}")
    assert found == []
    probe = ast.parse(
        "s = Substitution.from_rules(r)\n"
        "def parse_substitution(t):\n    return Substitution.from_rules(r, a)\n"
        "class C:\n    def build(self):\n        return Substitution(a, images)\n"
        "def tower(n):\n    return substitution.Substitution.from_rules(r)\n"
    )
    assert _from_rules_calls(probe) == [(1, None), (3, "parse_substitution"), (8, "tower")]


def test_code_line_count_probe():
    # the counter that the code-line figures of the project documents use
    probe = (
        '"""Module docstring,\n\nover three lines."""\n'
        "# a comment\n"
        "\n"
        "import os\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function docstring."""\n'
        '        x = """a string\n'
        'over two lines"""\n'
        "        return x  # a trailing comment\n"
    )
    # import, class, def, both lines of the string, return
    assert code_lines(probe) == 6


def _unreferenced_definitions(trees, exported):
    """(module, name) for every top-level function or class of ``trees``
    (module name -> tree) that no code of the modules reads outside its
    own definition and that is not in ``exported``.  A read is a name or
    an attribute; docstrings hold neither."""
    definitions = {
        (module, node.name): node
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    inside = {
        id(child): key for key, node in definitions.items() for child in ast.walk(node)
    }
    readers = {}  # name -> the definitions (None: module level) that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                readers.setdefault(node.id, set()).add(inside.get(id(node)))
            elif isinstance(node, ast.Attribute):
                readers.setdefault(node.attr, set()).add(inside.get(id(node)))
    return sorted(
        key
        for key in definitions
        if key[1] not in exported and not readers.get(key[1], set()) - {key}
    )


def test_no_library_code_that_only_the_tests_call():
    # a test-only oracle belongs in tests/, so every top-level function or
    # class of the package is read by the package or exported by it
    init = _tree(PACKAGE_DIR / "__init__.py")
    exported = {
        alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    trees = {
        module: _tree(PACKAGE_DIR / module) for module in CHECKED_MODULES if module != "__init__.py"
    }
    assert _unreferenced_definitions(trees, exported) == []
    probe = {
        "a.py": ast.parse(
            "def f(n):\n    '''g and h'''\n    return f(n - 1)\n"
            "def g():\n    return h\n"
            "def h():\n    return g()\n"
            "class C:\n    pass\n"
            "def e():\n    pass\n"
        ),
        "b.py": ast.parse("import a\nx = a.C\n"),
    }
    assert _unreferenced_definitions(probe, {"e"}) == [("a.py", "f")]
