"""Seeded mutation sweep over the package's modules.

A mutant flips one operator at one site of one module: ``<``/``<=``,
``>``/``>=``, ``==``/``!=``, ``and``/``or``, or ``+ 1``/``- 1``.  The
sweep samples sites with a fixed seed, runs a fast test subset with
``-x`` against each mutant in a temporary copy of the repository, and
prints every mutant that no test kills.  Mutants listed in
``tests/data/equivalent_mutants.txt`` change no behavior; they are
skipped.

Usage::

    python tests/mutate.py pairs.py reduction.py --sites 40 --seed 1
    python tests/mutate.py streams.py --tests tests/test_streams.py

Without ``--tests`` a module is run against ``tests/test_golden.py``,
``tests/test_refusals.py`` and its own test file.  Each subset first
runs once unmutated, which must pass; a mutant that runs more than five
times as long (and at least 30 s) is stopped and counts as killed, since
a hang is caught.  The exit status is 1 when a mutant survives.  Pytest
does not collect this file.
"""

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "substchaos"
EQUIVALENT = ROOT / "tests" / "data" / "equivalent_mutants.txt"
DEFAULT_TESTS = ("tests/test_golden.py", "tests/test_refusals.py")

COMPARE_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
}
BOOL_FLIPS = {ast.And: ast.Or, ast.Or: ast.And}
ARITH_FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.And: "and", ast.Or: "or", ast.Add: "+ 1", ast.Sub: "- 1",
}


class Site:
    """One operator flip: the expression ``node`` of the parsed source is
    replaced by its mutated copy ``mutant``.  ``at`` is the operand left of
    the operator, whose start tells apart the operators of a chained
    comparison."""

    __slots__ = ("module", "node", "mutant", "before", "after", "line", "col", "key")

    def __init__(self, module, node, mutant, before, after, at=None):
        self.module = module
        self.node = node
        self.mutant = mutant
        self.before = SYMBOLS[before]
        self.after = SYMBOLS[after]
        at = node if at is None else at
        self.line, self.col = at.lineno, at.col_offset
        # module:line:column before after, as the equivalent list names it
        self.key = f"{module}:{self.line}:{self.col} {self.before} {self.after}"


def mutation_sites(source, module):
    """Every site of ``source`` in source order, each with its mutated copy
    of the enclosing expression."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                flip = COMPARE_FLIPS.get(type(op))
                if flip is not None:
                    mutant = copy.deepcopy(node)
                    mutant.ops[i] = flip()
                    sites.append(Site(module, node, mutant, type(op), flip, operands[i]))
        elif isinstance(node, ast.BoolOp):
            flip = BOOL_FLIPS[type(node.op)]
            mutant = copy.deepcopy(node)
            mutant.op = flip()
            sites.append(Site(module, node, mutant, type(node.op), flip))
        elif (
            isinstance(node, ast.BinOp)
            and type(node.op) in ARITH_FLIPS
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int
            and node.right.value == 1
        ):
            flip = ARITH_FLIPS[type(node.op)]
            mutant = copy.deepcopy(node)
            mutant.op = flip()
            sites.append(Site(module, node, mutant, type(node.op), flip))
    sites.sort(key=lambda s: (s.line, s.col, s.before))
    return sites


def _offset(lines, lineno, col):
    """The character offset in the joined ``lines`` of the UTF-8 byte
    column ``col`` of line ``lineno``, as ``ast`` counts them."""
    line = lines[lineno - 1]
    return sum(map(len, lines[: lineno - 1])) + len(line.encode()[:col].decode())


def mutated_source(source, site):
    """``source`` with the site's expression replaced by its parenthesised
    mutant, so the flip binds as it did in the tree."""
    lines = source.splitlines(keepends=True)
    node = site.node
    start = _offset(lines, node.lineno, node.col_offset)
    end = _offset(lines, node.end_lineno, node.end_col_offset)
    return source[:start] + "(" + ast.unparse(site.mutant) + ")" + source[end:]


def read_equivalent(path=EQUIVALENT):
    """The keys of the listed equivalent mutants; each line is a key, then
    its reason after `` | ``."""
    keys = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.add(line.split(" | ")[0].strip())
    return keys


def _run(copy_root, tests, timeout=None):
    """``"survived"`` when the tests pass, ``"killed"`` when they fail and
    ``"timeout"`` when they run past ``timeout`` seconds."""
    env = dict(os.environ, PYTHONPATH=str(copy_root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        res = subprocess.run(cmd, cwd=copy_root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if res.returncode == 0 else "killed"


def _timeout(copy_root, tests, timeouts):
    """The timeout of a test subset: five times its unmutated run, at
    least 30 s.  The unmutated run must pass."""
    key = tuple(tests)
    if key not in timeouts:
        started = time.perf_counter()
        if _run(copy_root, tests) != "survived":
            sys.exit(f"the unmutated tests fail: {' '.join(tests)}")
        timeouts[key] = max(30.0, 5 * (time.perf_counter() - started))
    return timeouts[key]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module file names, e.g. pairs.py")
    parser.add_argument("--sites", type=int, default=40, help="sites to sample in all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--tests", nargs="+", default=None, help="test files to run")
    args = parser.parse_args(argv)

    sources = {m: (ROOT / PACKAGE / m).read_text(encoding="utf-8") for m in args.modules}
    sites = [s for m in args.modules for s in mutation_sites(sources[m], m)]
    sample = random.Random(args.seed).sample(sites, min(args.sites, len(sites)))
    sample.sort(key=lambda s: (s.module, s.line, s.col))
    equivalent = read_equivalent()
    print(f"{len(sample)} of {len(sites)} sites, seed {args.seed}", flush=True)

    tally = {}
    survivors = []
    timeouts = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy_root = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy_root, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        )
        for site in sample:
            counts = tally.setdefault(site.module, {"killed": 0, "survived": 0, "equivalent": 0})
            if site.key in equivalent:
                counts["equivalent"] += 1
                print(f"equivalent {site.key}", flush=True)
                continue
            tests = args.tests
            if tests is None:
                own = f"tests/test_{Path(site.module).stem}.py"
                tests = list(DEFAULT_TESTS) + ([own] if (ROOT / own).exists() else [])
            timeout = _timeout(copy_root, tests, timeouts)
            target = copy_root / PACKAGE / site.module
            target.write_text(mutated_source(sources[site.module], site), encoding="utf-8")
            started = time.perf_counter()
            try:
                outcome = _run(copy_root, tests, timeout)
            finally:
                target.write_text(sources[site.module], encoding="utf-8")
            seconds = time.perf_counter() - started
            counts["survived" if outcome == "survived" else "killed"] += 1
            print(f"{outcome:10} {site.key} ({seconds:.1f} s)", flush=True)
            if outcome == "survived":
                line = sources[site.module].splitlines()[site.line - 1].strip()
                survivors.append(f"{site.key} | {line}")

    for module, counts in sorted(tally.items()):
        print(f"{module}: {counts['killed']} killed, {counts['survived']} survived, "
              f"{counts['equivalent']} equivalent")
    for line in survivors:
        print(f"SURVIVOR {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
