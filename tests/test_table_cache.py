"""The bounded table cache: memory stays bounded over many substitutions,
and evicted tables are built again with the same answers, also when
threads share the substitutions."""

import itertools
import json
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

from substchaos import (
    analyze,
    cli,
    complexity,
    decide_infinite,
    fiber_bound,
    has_ly_pairs,
    language,
    parse_substitution,
    sorted_language,
    streams,
    uncountable_certificate,
)
from substchaos.pairs import _pair_layer, ly_witness
from substchaos.substitution import TABLE_CACHE_SIZE, _listing, _tables, language_chr

from conftest import CORPUS_SEED, MORSE, random_substitutions, rational_rank
from test_pairs import _large_input


def distinct_substitutions(count, seed, **kwargs):
    """``count`` pairwise distinct seeded primitive substitutions."""
    out = dict.fromkeys(random_substitutions(2 * count, seed=seed, **kwargs))
    assert len(out) >= count
    return list(out)[:count]


def test_table_cache_is_bounded():
    inputs = distinct_substitutions(
        TABLE_CACHE_SIZE + 50, CORPUS_SEED + 4, require_infinite=False
    )

    def answer(s):
        infinite = decide_infinite(s)
        return infinite, infinite and has_ly_pairs(s)

    _tables.cache_clear()
    language_chr.cache_clear()
    first = [answer(s) for s in inputs]
    assert _tables.cache_info().currsize <= TABLE_CACHE_SIZE
    assert language_chr.cache_info().currsize <= TABLE_CACHE_SIZE
    # the first inputs were evicted: asking again builds their tables anew
    misses = _tables.cache_info().misses
    assert [answer(s) for s in inputs[:50]] == first[:50]
    assert _tables.cache_info().misses >= misses + 50
    assert {ly for _, ly in first} == {False, True}


def test_tables_shared_across_threads_under_eviction():
    # README: substitutions are shared read-only across threads; with
    # twice as many substitutions as the cache holds, tables are evicted
    # and built again while other threads read them
    inputs = distinct_substitutions(2 * TABLE_CACHE_SIZE, CORPUS_SEED + 5)
    rng = random.Random(9)
    jobs = [(rng.randrange(3), s) for s in inputs for _ in range(2)]
    rng.shuffle(jobs)
    decisions = (decide_infinite, ly_witness, uncountable_certificate)

    def run(job):
        k, s = job
        return decisions[k](s)

    _tables.cache_clear()
    expected = [run(job) for job in jobs]
    _tables.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(run, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert _tables.cache_info().currsize <= TABLE_CACHE_SIZE
    # both pair decisions answer None on some inputs and a witness on others
    for k in (1, 2):
        answers = [w for (kind, _), w in zip(jobs, expected) if kind == k]
        assert None in answers and any(w is not None for w in answers)


def test_pair_layer_holds_few_bytes_per_position():
    # one tuple slot of a parent code and one of a digit per letter-pair
    # position (the codes of one parent are one int object, the digits
    # small ints), plus two tuples per pair: about 21 bytes per position,
    # where a (parent, digit) tuple per position held about 108
    n, p = 64, 32
    s = _large_input(n, p, CORPUS_SEED + n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        layer = _pair_layer.__wrapped__(s)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    positions = n * n * p
    assert sum(map(len, layer.parents)) == sum(map(len, layer.positions)) == positions
    assert held <= 24 * positions


def test_analyze_leaves_no_length_three_listing(monkeypatch):
    # the fiber bound counts the length-3 words of the uncached builder and
    # keeps the count in the table cache: after ``analyze`` the listing
    # cache holds L_2 alone, and asking the bound again lists nothing
    s = next(
        s
        for k in itertools.count()
        if rational_rank(s := _large_input(6, 5, CORPUS_SEED + k)) == s.size
    )
    _tables.cache_clear()
    language_chr.cache_clear()
    bound = analyze(s).to_json_dict()["fiber_bound"]
    assert language_chr.cache_info().currsize == 1
    listed = []

    def builder(*args):
        listed.append(args)
        return _listing(*args)

    # the binding that ``fiber_bound`` reads: it lists L_3 once the table
    # holding the bound is gone, and not while it is kept
    monkeypatch.setattr(streams, "_listing", builder)
    assert fiber_bound(s) == bound
    assert listed == []
    _tables.cache_clear()
    assert fiber_bound(s) == bound
    assert listed == [(s, 3)]
    assert language_chr.cache_info().currsize == 1


def test_listings_past_length_two_are_not_kept():
    # a listing of length 3 or more is a terminal output, built on every
    # call: after listing two inputs at every length up to 64, the listing
    # cache holds their two L_2 and the process holds no longer listing.
    # The inputs have one-character letters, so the public words are
    # strings: freed token tuples would stay on the interpreter's free
    # lists and read as held
    four_by_four = next(s for s in random_substitutions(20) if s.size == s.constant_length == 4)
    inputs = [parse_substitution(MORSE), four_by_four]
    _tables.cache_clear()
    language_chr.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in inputs:
            for n in range(3, 65):
                sorted_language(s, n)
                language(s, n)
            complexity(s, 64)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert language_chr.cache_info().currsize == 2
    assert held < 64 * 1024


def test_language_command_caches_only_its_two_letter_words(tmp_path, capsys):
    path = tmp_path / "morse.txt"
    path.write_text(MORSE, encoding="utf-8")
    _tables.cache_clear()
    language_chr.cache_clear()
    assert cli.main(["language", str(path), "40"]) == 0
    assert language_chr.cache_info().currsize == 1
    words = json.loads(capsys.readouterr().out)["words"]
    assert words == sorted_language(parse_substitution(MORSE), 40)
