"""The pair layer's work, pinned as one total per counter per corpus.

For every input of three corpora the counters of ``conftest.PAIR_WORK``
are read off the pair layer and the Li-Yorke search (``pair_work``) and
summed, and ``tests/data/work.json`` pins the sums.  The counters are
deterministic, so a change that keeps every answer but stores more
letter-pair positions, splits or merges components, or walks more
search states moves a total, and the failure names it and its direction.

The corpora hold one-to-one reductions with an infinite subshift, the
domain of the pair decisions:

- ``fixtures``: the shared fixtures of ``conftest.FIXTURE_SOURCES``;
- ``classes``: every primitive class of ``test_small_classes.TIERS``;
- ``tiers``: the seeded (6,5), (8,6) and (10,8) inputs of
  ``test_search_work.tier_corpus``.

Regenerate the totals only when the work is meant to change, and state
the new totals in CHANGES:

    PYTHONPATH=src python tests/test_work.py
"""

import json
import sys
from pathlib import Path

import pytest

from substchaos import (
    Substitution,
    decide_infinite,
    is_primitive,
    one_to_one_reduction,
    parse_substitution,
)

from conftest import FIXTURE_SOURCES, PAIR_WORK, pair_work
from test_search_work import tier_corpus
from test_small_classes import TIERS, classes

TOTALS = Path(__file__).parent / "data" / "work.json"


def _fixtures():
    return [parse_substitution(source) for source in FIXTURE_SOURCES.values()]


def _classes():
    return [
        Substitution(tuple("abcd"[:n]), images) for n, p in TIERS for images in classes(n, p)
    ]


CORPORA = {"fixtures": _fixtures, "classes": _classes, "tiers": tier_corpus}


def reductions(name):
    """The one-to-one reductions of the corpus's primitive inputs whose
    subshift is infinite, in corpus order."""
    out = []
    for s in CORPORA[name]():
        if is_primitive(s):
            reduced = one_to_one_reduction(s).reduced
            if decide_infinite(reduced):
                out.append(reduced)
    return out


def corpus_work(name):
    """Counter -> its total over the corpus, with the inputs counted."""
    inputs = reductions(name)
    totals = [sum(column) for column in zip(*map(pair_work, inputs))]
    return {"inputs": len(inputs), **dict(zip(PAIR_WORK, totals))}


@pytest.mark.parametrize("name", list(CORPORA))
def test_pair_work_matches_its_totals(name):
    expected = json.loads(TOTALS.read_text(encoding="utf-8"))[name]
    counted = corpus_work(name)
    moved = {
        key: f"{expected[key]} -> {counted[key]} ({'up' if counted[key] > expected[key] else 'down'})"
        for key in expected
        if counted[key] != expected[key]
    }
    assert moved == {}


if __name__ == "__main__":
    totals = {name: corpus_work(name) for name in CORPORA}
    for name, work in totals.items():
        print(f"{name}: {work}", file=sys.stderr)
    TOTALS.write_text(json.dumps(totals, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(totals)} corpora written to {TOTALS}", file=sys.stderr)
