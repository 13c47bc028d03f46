"""The public value types keep the equality, hash and ordering of the
frozen records they replaced: two instances are equal exactly when their
fields are, in constructor order; the hash is that of the tuple of the
fields; stream entries order as their field tuples; and an analysis
report compares by its document and has no hash.  Pickling and copying
give an equal value."""

import copy
import itertools
import pickle

import pytest

from substchaos import (
    AnalysisReport,
    analyze,
    classify_pair,
    coincidence_class,
    construct_ly_pair,
    empirical_class,
    is_simplifiable,
    li_yorke_certificate,
    one_to_one_reduction,
    parse_substitution,
    uncountable_certificate,
    verify_scrambled_S,
)
from substchaos.streams import StreamEntry

from conftest import BAACD, LY_TWO

# every public value type, with its fields in constructor order
FIELDS = {
    "Substitution": ("alphabet", "images"),
    "RepresentedPoint": ("subst", "preperiod", "period", "left_seed", "right_seed"),
    "StreamEntry": ("prefix", "center", "suffix"),
    "OdometerDigits": ("base", "preperiod", "period"),
    "CoincidenceClass": ("kind",),
    "LyCertificate": ("power", "a", "b", "position", "u", "v", "u2", "v2"),
    "DoubleCertificate": ("power", "a", "b", "first", "second"),
    "PairVerdict": ("kind", "rule", "strong"),
    "ConstructedPair": ("x", "y", "letters", "certificate"),
    "EvidenceReport": (
        "horizon", "window", "proximality_events", "proximality_count", "separation_events",
        "separation_count", "last_separation", "max_last_difference", "min_distance",
        "max_distance",
    ),
    "TowerMatrixEntry": (
        "first", "second", "level", "verdict", "rule", "proximality_count",
        "separation_count", "max_last_difference",
    ),
    "TowerReport": ("depth", "horizon", "entries"),
    "ReductionResult": ("reduced", "letter_map", "steps"),
    "Simplification": ("target_alphabet", "f", "g"),
}


def _key(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record).__name__])


def _records(source):
    """Instances of the public value types, built from one source."""
    s = parse_substitution(source)
    pair = construct_ly_pair(s)
    x, y = pair.x, pair.y
    tower = verify_scrambled_S(2, 27)
    return [
        s,
        x,
        y,
        *x.preperiod,
        *x.period,
        *y.period,
        x.odometer_digits(),
        coincidence_class(s),
        li_yorke_certificate(s),
        uncountable_certificate(s),
        classify_pair(x, y),
        classify_pair(x, x.shift()),
        pair,
        empirical_class(x, y, 40),
        tower,
        *tower.entries,
        one_to_one_reduction(s),
        is_simplifiable(parse_substitution("0 -> 0101\n1 -> 01")),
    ]


def test_each_public_type_keeps_its_equality_hash_and_ordering():
    records = _records(LY_TWO) + _records(BAACD)
    assert {type(r).__name__ for r in records} == set(FIELDS)
    for r in records:
        # the positional constructor takes the fields in their order
        twin = type(r)(*_key(r))
        assert twin == r and not twin != r and hash(twin) == hash(r) == hash(_key(r))
        assert pickle.loads(pickle.dumps(r)) == copy.deepcopy(r) == copy.copy(r) == r
    for a, b in itertools.combinations(records, 2):
        if type(a) is type(b):
            assert (a == b) == (_key(a) == _key(b)) != (a != b)
            if type(a) is StreamEntry:
                ka, kb = _key(a), _key(b)
                assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    entries = [r for r in records if type(r) is StreamEntry]
    assert len(entries) > 2 and sorted(entries) == sorted(entries, key=_key)


def test_analysis_report_compares_by_its_document():
    first, second = analyze(parse_substitution(LY_TWO)), analyze(parse_substitution(LY_TWO))
    assert first == second and first is not second
    assert first != analyze(parse_substitution(BAACD))
    assert AnalysisReport().data == {} and AnalysisReport() == AnalysisReport({})
    with pytest.raises(TypeError):
        hash(first)
