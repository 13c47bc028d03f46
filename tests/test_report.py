"""The analysis bundle: how often ``analyze`` runs the finiteness search
and how it derives ``is_elementary`` from the decision trace."""

from collections import Counter

from substchaos import analyze, is_simplifiable, parse_substitution, reduction, substitution

NON_INJECTIVE = "0 -> 021\n1 -> 021\n2 -> 201"


def test_analyze_searches_each_substitution_once(fixtures, monkeypatch):
    searched = Counter()
    original = reduction.is_simplifiable

    def counting(subst, *args, **kwargs):
        searched[subst] += 1
        return original(subst, *args, **kwargs)

    monkeypatch.setattr(reduction, "is_simplifiable", counting)
    substitution._tables.cache_clear()
    inputs = list(fixtures.values()) + [parse_substitution(NON_INJECTIVE)]
    for s in inputs:
        analyze(s)
    assert set(inputs) <= set(searched)
    assert {s: c for s, c in searched.items() if c != 1} == {}


def test_is_elementary_matches_the_search(fixtures, random_corpus_any):
    for s in list(fixtures.values()) + random_corpus_any:
        report = analyze(s, include_orbits=False)
        assert report.data["is_elementary"] == (is_simplifiable(s) is None), s.rules()
