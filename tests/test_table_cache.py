"""The bounded table cache: memory stays bounded over many substitutions,
and evicted tables are built again with the same answers, also when
threads share the substitutions."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from substchaos import decide_infinite, has_ly_pairs, uncountable_certificate
from substchaos.pairs import ly_witness
from substchaos.substitution import TABLE_CACHE_SIZE, _tables, language_chr

from conftest import CORPUS_SEED, random_substitutions


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
