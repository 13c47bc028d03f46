"""The site finder of the mutation sweep (``tests/mutate.py``), on a
probe source and on the list of equivalent mutants; the sweep itself
runs the tests in subprocesses and is not part of this suite."""

import ast

from mutate import PACKAGE, ROOT, mutated_source, mutation_sites, read_equivalent

PROBE = (
    "def f(a, b):\n"
    "    if a < b and 0 != a <= b:\n"
    "        return a + 1\n"
    "    return b - 1 if a >= b else b + 2\n"
    "s = 'σσ' if a == 1 else a is None\n"
)


def test_sites_of_a_probe_source():
    sites = mutation_sites(PROBE, "m.py")
    # `b + 2` and `a is None` are not sites; a compared operator is placed
    # at the operand on its left; columns count UTF-8 bytes
    assert [site.key for site in sites] == [
        "m.py:2:7 < <=", "m.py:2:7 and or", "m.py:2:17 != ==", "m.py:2:22 <= <",
        "m.py:3:15 + 1 - 1", "m.py:4:11 - 1 + 1", "m.py:4:20 >= >", "m.py:5:14 == !=",
    ]
    mutants = [mutated_source(PROBE, site).splitlines() for site in sites]
    assert mutants[1][1] == "    if (a < b or 0 != a <= b):"
    assert mutants[3][1] == "    if a < b and (0 != a < b):"
    assert mutants[4][2] == "        return (a - 1)"
    assert mutants[7][4] == "s = 'σσ' if (a != 1) else a is None"
    for mutant in mutants:
        ast.parse("\n".join(mutant))


def test_listed_equivalent_mutants_are_sites():
    # a listed key that names no site would skip nothing, or the wrong flip
    keys = read_equivalent()
    assert keys
    for key in keys:
        module = key.split(":")[0]
        source = (ROOT / PACKAGE / module).read_text(encoding="utf-8")
        assert key in {site.key for site in mutation_sites(source, module)}, key
