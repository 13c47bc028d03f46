"""The analysis bundle: how often ``analyze`` runs the simplification search,
how it derives ``is_elementary`` from the decision trace, and the memory
of the brute-force scan."""

import tracemalloc
from collections import Counter

from substchaos import (
    AnalysisReport,
    analyze,
    is_simplifiable,
    parse_substitution,
    reduction,
    substitution,
)
from substchaos.report import _brute_scan

NON_INJECTIVE = "0 -> 021\n1 -> 021\n2 -> 201"


def test_analyze_searches_each_substitution_once(fixtures, monkeypatch):
    # every input is asked, and every search below full rank is walked
    # once (one ``_cover`` call), though a substitution that recurs as a
    # composed round is asked again and answered from the memo
    asked, walked = Counter(), Counter()
    original, cover = reduction.is_simplifiable, reduction._cover

    def asking(subst):
        asked[subst] += 1
        return original(subst)

    def walking(table, sizes):
        walked[table.images] += 1
        return cover(table, sizes)

    monkeypatch.setattr(reduction, "is_simplifiable", asking)
    monkeypatch.setattr(reduction, "_cover", walking)
    substitution._tables.cache_clear()
    inputs = list(fixtures.values()) + [parse_substitution(NON_INJECTIVE)]
    for s in inputs:
        analyze(s)
    assert set(inputs) <= set(asked)
    assert walked and {images: c for images, c in walked.items() if c != 1} == {}


def test_is_elementary_matches_the_search(fixtures, random_corpus_any):
    for s in list(fixtures.values()) + random_corpus_any:
        report = analyze(s)
        assert report.data["is_elementary"] == (is_simplifiable(s) is None), s.rules()


def test_reports_are_equal_by_their_data(fixtures):
    report = analyze(fixtures["morse"])
    assert report == AnalysisReport(dict(report.data))
    # a report leaves the comparison with anything else to the other side
    assert report.__eq__(report.data) is NotImplemented
    assert report != report.data


def _scan_peak(text, bound):
    s = parse_substitution(text)
    tracemalloc.start()
    try:
        verdict = _brute_scan(s, bound)
        return verdict, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_scan_memory_does_not_grow_with_the_targets():
    # one letter pair a < b on two letters, ten on five: the scan holds the
    # pair words of one target at a time, so both peaks are a few words of
    # length N (a scan of all targets at once held ten)
    bound = 1 << 16
    two, peak_two = _scan_peak("a -> ab\nb -> ba", bound)
    five, peak_five = _scan_peak("a -> ab\nb -> bc\nc -> cd\nd -> de\ne -> ea", bound)
    assert two == (False, False)
    assert five == (False, False)
    assert peak_five < 2 * peak_two
    assert peak_five < 6 * bound
