"""Coincidence structure, the Li-Yorke decision engines, pair
classification, constructions, and orbit enumeration."""

import itertools
import random
import time
from collections import Counter

import pytest

from substchaos import (
    Coincidence,
    PairClass,
    RepresentedPoint,
    Substitution,
    analyze,
    build_scrambled_set,
    classify_pair,
    coincidence_class,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    decide_infinite,
    enumerate_fiber,
    enumerate_ly_orbits,
    has_ly_pairs,
    has_uncountable_ly,
    li_yorke_certificate,
    parse_substitution,
    stream_from_fixed_point,
    uncountable_certificate,
)
from substchaos.errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
    StreamChainError,
)
from substchaos.odometer import OdometerDigits
from substchaos.pairs import (
    CERTIFICATE_WORD_CAP,
    _aligned_entries,
    _certificate_words,
    _ly_levels,
    _pair_layer,
    _past_finite_forward_data,
    ly_witness,
)
from substchaos.report import _brute_scan
from substchaos.streams import _entries_below
from substchaos.substitution import is_primitive, iterate_chr, language_chr

from conftest import (
    CORPUS_SEED,
    COUNTABLE_CLASSES,
    check_recurrent_return_times,
    classify_pair_two_letter,
    coincidence_chain,
    double_engine,
    engine_uncountable_certificate,
    fixed_points,
    pair_tables,
    random_substitutions,
    reference_ly_levels,
    right_end_jump,
    stopped_ly_hit,
    walked_ly_orbits,
)


def test_coincidence_classes(fixtures):
    assert coincidence_class(fixtures["morse"]).kind is Coincidence.NO_COINCIDENCE
    assert coincidence_class(fixtures["toeplitz"]).kind is Coincidence.OVERALL
    assert coincidence_class(fixtures["aba"]).kind is Coincidence.OVERALL
    assert coincidence_class(fixtures["baacd"]).kind is Coincidence.OVERALL
    assert coincidence_class(fixtures["four"]).kind is Coincidence.PARTIAL


@pytest.mark.parametrize(
    "name, expected",
    [
        ("morse", False),
        ("toeplitz", False),
        ("ly_two", True),
        ("aba", True),
        ("baacd", True),
        ("four", False),
    ],
)
def test_has_ly_pairs_fixtures(fixtures, name, expected):
    assert has_ly_pairs(fixtures[name]) is expected


@pytest.mark.parametrize(
    "name, expected",
    [
        ("morse", False),
        ("toeplitz", False),
        ("ly_two", True),
        ("aba", False),
        ("baacd", True),
        ("four", False),
    ],
)
def test_has_uncountable_fixtures(fixtures, name, expected):
    assert has_uncountable_ly(fixtures[name]) is expected
    data = analyze(fixtures[name]).data
    assert data["strong_li_yorke"] is data["uncountable_li_yorke"] is expected


def test_engines_require_one_to_one():
    with pytest.raises(PreconditionError):
        has_ly_pairs(parse_substitution("0 -> 01\n1 -> 01"))


def test_certificates(fixtures):
    cert = li_yorke_certificate(fixtures["ly_two"])
    assert (cert.power, cert.a, cert.b) == (1, "0", "1")
    assert (cert.u, cert.v, cert.u2, cert.v2) == ("", "10", "", "00")
    cert = li_yorke_certificate(fixtures["aba"])
    assert (cert.v, cert.v2) == ("ba", "ca")
    dcert = uncountable_certificate(fixtures["baacd"])
    assert (dcert.power, dcert.a, dcert.b, dcert.first, dcert.second) == (1, "a", "b", 1, 2)
    assert li_yorke_certificate(fixtures["morse"]) is None


def _assert_certificate_words(s, cert):
    """The Li-Yorke certificate reads off the words σ^m(a), σ^m(b) at its
    power m: a and b at its position, then suffixes that differ and share
    a coincidence."""
    ua = iterate_chr(s, chr(s.index(cert.a)), cert.power)
    ub = iterate_chr(s, chr(s.index(cert.b)), cert.power)
    j = cert.position
    assert ua[j] == chr(s.index(cert.a))
    assert ub[j] == chr(s.index(cert.b))
    v, v2 = ua[j + 1 :], ub[j + 1 :]
    assert v != v2
    assert any(a == b for a, b in zip(v, v2))
    assert (cert.u, cert.v) == (s.decode(ua[:j]), s.decode(v))
    assert (cert.u2, cert.v2) == (s.decode(ub[:j]), s.decode(v2))


def test_certificate_words_satisfy_criterion(fixtures):
    for name in ("ly_two", "aba", "baacd"):
        s = fixtures[name]
        _assert_certificate_words(s, li_yorke_certificate(s))


def test_certificate_words_stop_at_the_word_cap(monkeypatch):
    import substchaos.pairs

    # p^m = 10^6 is the cap itself, and p^3 = 10^9 is past it
    s = Substitution.from_rules({"a": "ab" * 500, "b": "ba" * 500}, ("a", "b"))
    ua, ub = _certificate_words(s, chr(0), chr(1), 2)
    assert len(ua) == len(ub) == 1000**2 == CERTIFICATE_WORD_CAP
    assert (ua, ub) == (s.apply(s.images[0]), s.apply(s.images[1]))
    with pytest.raises(BudgetExceededError) as info:
        _certificate_words(s, chr(0), chr(1), 3)
    assert str(info.value) == "certificate words at power 3 exceed the word cap"
    # the cap is read at call time: one below the words' length refuses them
    monkeypatch.setattr(substchaos.pairs, "CERTIFICATE_WORD_CAP", 1000**2 - 1)
    with pytest.raises(BudgetExceededError) as info:
        _certificate_words(s, chr(0), chr(1), 2)
    assert type(info.value) is BudgetExceededError
    assert str(info.value) == "certificate words at power 2 exceed the word cap"


def test_ly_witness_refuses_a_search_past_its_level_bound(fixtures, monkeypatch):
    import substchaos.pairs
    from substchaos import substitution

    # levels that never hit, forever: the proof puts a hit at a level <=
    # 3Vk, 12 on ly_two (a component of V = 2 pairs, k = deepest + 1 = 2),
    # so the search reads levels 0 to 12 and then refuses
    read = []

    def hit_free(subst, target):
        for level in itertools.count():
            read.append(level)
            yield {}

    monkeypatch.setattr(substchaos.pairs, "_ly_levels", hit_free)
    substitution._tables.cache_clear()
    try:
        with pytest.raises(InvariantError) as info:
            ly_witness(fixtures["ly_two"])
    finally:
        substitution._tables.cache_clear()
    assert str(info.value) == "Li-Yorke search passed its proven level bound"
    assert len(read) == 12 + 1


def _large_input(n, p, seed):
    """A seeded primitive one-to-one substitution on n letters of length
    p with an infinite subshift."""
    rng = random.Random(seed)
    alphabet = tuple(f"x{i}" for i in range(n))
    while True:
        rules = {a: [rng.choice(alphabet) for _ in range(p)] for a in alphabet}
        s = Substitution.from_rules(rules, alphabet)
        if s.is_injective() and is_primitive(s) and decide_infinite(s):
            return s


@pytest.mark.parametrize("n, p", [(26, 16), (64, 32)])
def test_large_inputs_agree_with_word_scans(n, p):
    # the pair layer at sizes far past the random corpus: the decisions
    # agree with the direct word scans up to p^2, and the Li-Yorke
    # certificate reads off the words at its power
    s = _large_input(n, p, CORPUS_SEED + n)
    report = analyze(s, brute_bound=p**2).to_json_dict()
    assert report["brute_check"] == "agree"
    assert report["has_li_yorke"]
    _assert_certificate_words(s, li_yorke_certificate(s))


def test_engine_agrees_with_brute_force(fixtures, random_corpus):
    candidates = [
        fixtures[name] for name in ("morse", "toeplitz", "ly_two", "aba", "baacd", "four")
    ] + random_corpus
    for s in candidates:
        brute_ly, brute_unc = _brute_scan(s, 10**6)
        engine_ly = has_ly_pairs(s)
        engine_unc = has_uncountable_ly(s)
        if brute_ly:
            assert engine_ly, s.rules()
        if brute_unc:
            assert engine_unc, s.rules()
        if not engine_ly:
            assert not brute_ly, s.rules()
        if not engine_unc:
            assert not brute_unc, s.rules()
        # witnesses at desk scale let the comparison run both ways
        if engine_ly:
            wit = ly_witness(s)
            if s.constant_length ** wit[1] <= 10**6:
                assert brute_ly, s.rules()


def test_diagonal_soundness(fixtures):
    # iterated pair images of an off-diagonal pair always keep an
    # off-diagonal position when the substitution is one-to-one
    for s in fixtures.values():
        n = s.size
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                wa, wb = chr(a), chr(b)
                for _ in range(8):
                    wa, wb = s.apply(wa), s.apply(wb)
                    assert any(x != y for x, y in zip(wa, wb))


def test_flag_joins_monotone(fixtures):
    # per reachable pair, the strongest realized flag combination never
    # weakens from one level to the next over the first ten levels; the
    # levels are those of the reference search on tuple pairs
    for name in ("morse", "toeplitz", "ly_two", "aba", "baacd", "four"):
        s = fixtures[name]
        n = s.size
        pairs, _, _ = pair_tables(s)
        targets = [q for q in pairs if q[0] < q[1]]
        for target in targets[:3]:
            levels = list(itertools.islice(_ly_levels(s, target[0] * n + target[1]), 11))
            reference = itertools.islice(reference_ly_levels(s, target), 11)
            for state, expected in zip(levels, reference):
                assert {(divmod(q, n), fc, fd) for q, fc, fd in state} == set(expected)
            for prev, nxt in zip(levels[1:], levels[2:]):
                best_prev = {}
                for q, fc, fd in prev:
                    cur = best_prev.get(q, (False, False))
                    best_prev[q] = (cur[0] or fc, cur[1] or fd)
                best_next = {}
                for q, fc, fd in nxt:
                    cur = best_next.get(q, (False, False))
                    best_next[q] = (cur[0] or fc, cur[1] or fd)
                for q, (fc, fd) in best_prev.items():
                    if q in best_next:
                        nfc, nfd = best_next[q]
                        assert (nfc or not fc) and (nfd or not fd), (name, target, q)


# -- classification ----------------------------------------------------------


def test_classify_morse_pairs(fixtures):
    morse = fixtures["morse"]
    p00 = stream_from_fixed_point(morse, "0", "0")
    p10 = stream_from_fixed_point(morse, "1", "0")
    p01 = stream_from_fixed_point(morse, "0", "1")
    asym = classify_pair(p00, p10)
    assert asym.kind is PairClass.ASYMPTOTIC
    assert asym.rule == "eventual-suffix-equality"
    distal = classify_pair(p00, p01)
    assert distal.kind is PairClass.DISTAL
    assert distal.rule == "no-coincidence-separation"
    cross = classify_pair(p00, p00.shift())
    assert cross.kind is PairClass.DISTAL
    assert cross.rule == "distinct-odometer-digits"


def test_classify_constructed_ly_pair(fixtures):
    cp = construct_ly_pair(fixtures["ly_two"])
    verdict = classify_pair(cp.x, cp.y)
    assert verdict.kind is PairClass.LI_YORKE
    assert verdict.strong is True  # two letters plus the double-occurrence condition
    assert cp.x.to_literal()["period"] == [["", "0", "10"]]
    assert cp.x.to_literal()["left_seed"] == "0"
    assert cp.y.to_literal()["period"] == [["", "1", "00"]]


def test_classify_aba_construction(fixtures):
    cp = construct_ly_pair(fixtures["aba"])
    assert classify_pair(cp.x, cp.y).kind is PairClass.LI_YORKE


def test_point_constructor_refuses_a_chain_that_does_not_return(fixtures):
    # 0 -> 010: cut at digit 1, the chain under 0 ends on 1 and under 1
    # (1 -> 100) on 0, so neither returns to its top letter
    s = fixtures["ly_two"]
    for letter in (chr(0), chr(1)):
        ex = _entries_below(s, letter, [1])
        assert ex[0].center != letter
        with pytest.raises(StreamChainError, match="image of the upper center"):
            RepresentedPoint(s, (), ex, None, None)


def test_point_constructor_refuses_a_forged_periodic_predecessor(monkeypatch):
    # the witness sits at position zero, so the left seeds come from
    # _lambda_periodic_predecessor; 2 is on a cycle of the last-letter
    # map, but "2 2" is not a word of the language
    import substchaos.pairs

    s = parse_substitution("0 -> 001\n1 -> 020\n2 -> 202")
    cp = construct_ly_pair(s)
    assert (cp.x.left_seed, cp.y.left_seed) == (chr(0), chr(0))
    assert chr(2) * 2 not in language_chr(s, 2)
    monkeypatch.setattr(substchaos.pairs, "_lambda_periodic_predecessor", lambda *a: chr(2))
    with pytest.raises(InvariantError, match="left seed junction word is not in the language"):
        construct_ly_pair(s)


def test_construct_rejects_when_no_pairs(fixtures):
    with pytest.raises(PreconditionError):
        construct_ly_pair(fixtures["morse"])
    with pytest.raises(PreconditionError):
        construct_recurrent_ly_pair(fixtures["aba"])
    with pytest.raises(PreconditionError):
        construct_recurrent_ly_pair(fixtures["morse"])


def test_classify_toeplitz_fiber_pairs(fixtures):
    toep = fixtures["toeplitz"]
    pts = fixed_points(toep)
    assert len(pts) >= 2
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            verdict = classify_pair(pts[i], pts[j])
            if pts[i].odometer_digits() == pts[j].odometer_digits():
                assert verdict.kind is PairClass.ASYMPTOTIC


def test_classify_shifts_away_finite_forward_data(fixtures):
    morse = fixtures["morse"]
    fiber = enumerate_fiber(morse, OdometerDigits(2, (), (1,)))
    assert len(fiber) >= 2
    verdicts = {
        classify_pair(fiber[i], fiber[j]).kind
        for i in range(len(fiber))
        for j in range(i + 1, len(fiber))
    }
    assert verdicts <= {PairClass.ASYMPTOTIC, PairClass.DISTAL}


def _right_end_fibers(p, rng):
    """Fibers whose digits end in (p-1)^∞ after a preperiod: (0), (0, 0, 1)
    and one seeded preperiod of up to 5 levels."""
    seeded = tuple(rng.randrange(p) for _ in range(rng.randint(1, 5)))
    return [OdometerDigits(p, pre, (p - 1,)) for pre in ((0,), (0, 0, 1), seeded)]


def test_verdicts_do_not_change_under_shifts(fixtures, random_corpus):
    # the classes are orbit classes: (x, y) and (S^n x, S^n y) get one
    # verdict, also where both points first jump past a finite right side
    rng = random.Random(14)
    checked = 0
    for s in [*fixtures.values(), *random_corpus[:30]]:
        for digits in _right_end_fibers(s.constant_length, rng):
            for x, y in itertools.combinations(enumerate_fiber(s, digits), 2):
                kind = classify_pair(x, y).kind
                for n in (1, 2, 7):
                    shifted = classify_pair(x.shift_by(n), y.shift_by(n)).kind
                    assert shifted is kind, (s.rules(), digits, n)
                checked += 1
    assert checked >= 100


def test_morse_fiber_of_a_far_negative_integer(fixtures):
    # 0^30 1^∞ is the fiber of -2^30: one jump of 2^30 shifts takes its
    # points to fiber 0, where they pair up as over fiber -1 = 1^∞
    morse = fixtures["morse"]

    def kinds(digits):
        pts = enumerate_fiber(morse, digits)
        return Counter(classify_pair(x, y).kind for x, y in itertools.combinations(pts, 2))

    start = time.perf_counter()
    far = kinds(OdometerDigits(2, (0,) * 30, (1,)))
    assert time.perf_counter() - start < 1.0
    expected = Counter({PairClass.DISTAL: 4, PairClass.ASYMPTOTIC: 2})
    assert far == kinds(OdometerDigits(2, (), (1,))) == expected


def test_classify_partial_coincidence_pairs_exactly(fixtures, monkeypatch):
    # the coincidence closure decides every same-fiber pair of the
    # partial-coincidence fixture, and it runs no simulation to do so
    import substchaos.simulate

    def refuse(*args, **kwargs):
        raise RuntimeError("classification must not simulate")

    monkeypatch.setattr(substchaos.simulate, "empirical_class", refuse)
    four = fixtures["four"]
    assert coincidence_class(four).kind is Coincidence.PARTIAL
    pts = fixed_points(four)
    verdicts = Counter(
        (verdict.kind, verdict.rule)
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if pts[i].odometer_digits() == pts[j].odometer_digits()
        for verdict in [classify_pair(pts[i], pts[j])]
    )
    assert verdicts == {
        (PairClass.DISTAL, "coincidence-closure-separation"): 4,
        (PairClass.ASYMPTOTIC, "eventual-suffix-equality"): 2,
    }


def test_coincidence_closure_spans_the_classes(fixtures):
    # C∞ is every pair under overall coincidences, the diagonal under none,
    # and strictly between them for the partial-coincidence fixture
    for name in ("morse", "toeplitz", "aba", "four"):
        s = fixtures[name]
        pairs, _, _ = pair_tables(s)
        depth = _pair_layer(s).depth
        closure = {divmod(q, s.size) for q, d in enumerate(depth) if d < len(depth)}
        assert closure == coincidence_chain(s)[-1], name
        diagonal = {q for q in pairs if q[0] == q[1]}
        kind = coincidence_class(s).kind
        if kind is Coincidence.OVERALL:
            assert closure == set(pairs), name
        elif kind is Coincidence.NO_COINCIDENCE:
            assert closure == diagonal, name
        else:
            assert diagonal < closure < set(pairs), name


def test_partial_coincidence_li_yorke_pairs():
    # a countable partial-coincidence class: some of its fiber pairs meet
    # C∞ at a period level and are Li-Yorke
    s = parse_substitution("a -> aba\nb -> aac\nc -> cba")
    assert coincidence_class(s).kind is Coincidence.PARTIAL
    pts = fixed_points(s)
    for per in ((0,), (1,), (2,)):
        pts += enumerate_fiber(s, OdometerDigits(3, (), per))
    rules = {
        classify_pair(x, y).rule
        for i, x in enumerate(pts)
        for y in pts[i + 1 :]
        if x != y and x.odometer_digits() == y.odometer_digits()
    }
    assert "coincidence-closure-recurrent-difference" in rules


def test_classify_identical_points(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "0", "0")
    assert classify_pair(x, x).kind is PairClass.ASYMPTOTIC


def test_classify_rejects_mixed_substitutions(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "0", "0")
    y = construct_ly_pair(fixtures["ly_two"]).x
    with pytest.raises(PreconditionError):
        classify_pair(x, y)


def test_two_letter_shortcut_agrees(fixtures, point_corpus):
    for name in ("morse", "toeplitz", "ly_two"):
        points = point_corpus[name]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                x, y = points[i], points[j]
                assert (
                    classify_pair_two_letter(x, y).kind == classify_pair(x, y).kind
                ), (name, i, j)


def test_overall_coincidences_imply_proximal_evidence(fixtures):
    # with overall coincidences every distinct same-fiber pair is proximal:
    # deep agreement events must show up at the simulation horizon
    from substchaos.simulate import empirical_class

    for name in ("toeplitz", "aba", "baacd"):
        s = fixtures[name]
        assert coincidence_class(s).kind is Coincidence.OVERALL
        pts = fixed_points(s)
        for per in ((0,), (1,)):
            pts += enumerate_fiber(s, OdometerDigits(s.constant_length, (), per), radius=96)
        checked = 0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                x, y = pts[i], pts[j]
                if x == y or x.odometer_digits() != y.odometer_digits():
                    continue
                report = empirical_class(x, y, s.constant_length**6, 16)
                assert report.proximality_count >= 1, (name, i, j)
                checked += 1
        assert checked >= 1, name


# -- recurrent pair and orbit enumeration ------------------------------------


def test_recurrent_pair_construction(fixtures):
    rp = construct_recurrent_ly_pair(fixtures["baacd"])
    assert classify_pair(rp.x, rp.y).kind is PairClass.LI_YORKE
    assert rp.x.to_literal()["period"] == [["b", "a", "acd"], ["ba", "a", "cd"]]
    assert rp.letters == ("a", "b")


def test_recurrent_pair_with_boundary_witness(fixtures):
    # the witness of this fixture touches position zero, forcing the
    # power-doubling path
    rp = construct_recurrent_ly_pair(fixtures["ly_two"])
    assert classify_pair(rp.x, rp.y).kind is PairClass.LI_YORKE
    digits = rp.x.pi_digits(8)
    assert digits == rp.y.pi_digits(8)
    assert rp.x.left_seed is None and rp.x.right_seed is None
    # the squared witness has m = 4: the level-16 block of k = 2 holds 3^16 letters
    assert check_recurrent_return_times(rp, levels=(1,)) is True


def test_recurrent_pair_returns_at_the_proven_times():
    # the return times of the construction (its docstring) for k = 1, 2 on
    # the seeded uncountable inputs whose level-4m blocks hold at most
    # 65,536 letters, so the windows stay under about 2^21 letters
    checked = squared = 0
    for s in random_substitutions(1000, seed=CORPUS_SEED + 5):
        if not has_uncountable_ly(s):
            continue
        rp = construct_recurrent_ly_pair(s)
        if s.constant_length ** (2 * len(rp.x.period)) > 1 << 16:
            continue
        squared += check_recurrent_return_times(rp)
        checked += 1
    assert checked >= 100 and squared >= 10, (checked, squared)


def test_enumerate_orbits_aba(fixtures):
    orbits = enumerate_ly_orbits(fixtures["aba"])
    assert orbits
    assert len(orbits) < 50
    for x, y in orbits:
        assert classify_pair(x, y).kind is PairClass.LI_YORKE


def test_enumerate_orbits_refusals(fixtures):
    assert enumerate_ly_orbits(fixtures["morse"]) == []
    with pytest.raises(PreconditionError):
        enumerate_ly_orbits(fixtures["baacd"])
    with pytest.raises(PreconditionError):
        enumerate_ly_orbits(fixtures["ly_two"])
    # partial coincidences with uncountably many pairs are refused as well
    uncountable = parse_substitution("a -> aca\nb -> bab\nc -> bbc")
    assert coincidence_class(uncountable).kind is Coincidence.PARTIAL
    assert has_uncountable_ly(uncountable) and decide_infinite(uncountable)
    with pytest.raises(PreconditionError):
        enumerate_ly_orbits(uncountable)


def _class(index):
    return parse_substitution(
        "\n".join(f"{c} -> {w}" for c, w in zip("abc", COUNTABLE_CLASSES[index]))
    )


def _all_classes():
    out = [_class(i) for i in range(len(COUNTABLE_CLASSES))]
    kinds = Counter(coincidence_class(s).kind for s in out)
    assert kinds == {Coincidence.OVERALL: 30, Coincidence.PARTIAL: 30}
    return out


# partial coincidences, countably many Li-Yorke pairs, four letters
FOUR_LETTER_PARTIAL = "a -> dc\nb -> ba\nc -> ca\nd -> ab"

# countably many Li-Yorke pairs, and a 12-pair component with 36 inner
# edges that holds no Li-Yorke cycle
DENSE = "a -> bed\nb -> bea\nc -> edc\nd -> dea\ne -> cac"

# (a, b) lies in C∞ and on a one-pair cycle whose label holds only (c, d),
# off-diagonal and outside C∞, so its component is not ``ly``; the pair
# (a, b) itself is the last C∞ pair of its image
LAST_MEET = "a -> eac\nb -> ebd\nc -> eaa\nd -> bdd\ne -> bea"


def _random_countable(count, kind, seed=20261018):
    """Seeded one-to-one primitive inputs, |A| 3-4 and p 2-3, of the
    coincidence class ``kind`` with countably many Li-Yorke pairs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alphabet = "abcd"[: rng.randint(3, 4)]
        p = rng.randint(2, 3)
        s = parse_substitution(
            "\n".join(
                f"{c} -> {''.join(rng.choice(alphabet) for _ in range(p))}"
                for c in alphabet
            )
        )
        if not (s.is_injective() and is_primitive(s) and decide_infinite(s)):
            continue
        if coincidence_class(s).kind is not kind:
            continue
        if has_ly_pairs(s) and not has_uncountable_ly(s):
            out.append(s)
    return out


def _fiber_oracle(s, max_period=3):
    """Fiber -> the Li-Yorke pairs over it, from ``enumerate_fiber`` and
    ``classify_pair`` on every purely periodic fiber of digit period at
    most ``max_period``.  The all-(p-1) fiber shares its orbits with the
    all-0 fiber, so its pairs are shifted once into it."""
    p = s.constant_length
    zero = OdometerDigits(p, (), (0,))
    fibers = set()
    for length in range(1, max_period + 1):
        for period in itertools.product(range(p), repeat=length):
            fibers.add(OdometerDigits(p, (), period))
    found = {}
    for digits in fibers:
        minus_one = digits.preperiod == () and digits.period == (p - 1,)
        ly = set()
        for x, y in itertools.combinations(enumerate_fiber(s, digits), 2):
            if classify_pair(x, y).kind is not PairClass.LI_YORKE:
                continue
            if minus_one:
                x, y = x.shift(), y.shift()
            ly.add(frozenset((x, y)))
        if ly:
            found.setdefault(zero if minus_one else digits, set()).update(ly)
    return found


def test_orbit_list_matches_fiber_classification(fixtures):
    # each listed pair is one orbit: over every purely periodic fiber of
    # digit period <= 3 the listed pairs are exactly the Li-Yorke pairs
    # there, none missing and none twice, fiber -1 merged into fiber 0,
    # each pair oriented with the lesser level-0 center first
    cases = (
        [fixtures["aba"], parse_substitution(FOUR_LETTER_PARTIAL)]
        + _all_classes()
        + _random_countable(20, Coincidence.OVERALL)
        + _random_countable(20, Coincidence.PARTIAL)
    )
    orbits = 0
    for s in cases:
        listed = {}
        p = s.constant_length
        for x, y in enumerate_ly_orbits(s):
            digits = x.odometer_digits()
            assert digits == y.odometer_digits(), s.rules()
            assert not (digits.preperiod == () and digits.period == (p - 1,)), s.rules()
            assert x.entry(0).center < y.entry(0).center, s.rules()
            listed.setdefault(digits, []).append(frozenset((x, y)))
        for pairs in listed.values():
            assert len(set(pairs)) == len(pairs), s.rules()
        short = {d: set(v) for d, v in listed.items() if len(d.period) <= 3}
        expected = _fiber_oracle(s)
        assert short == expected, s.rules()
        orbits += sum(map(len, expected.values()))
    assert orbits >= 60


def test_orbit_list_gains_the_second_start_of_a_cycle():
    # class 29: one simple cycle with two starts, two orbits (a list that
    # kept the least rotation of each cycle had one)
    s = _class(29)
    assert s.rules() == {"a": "aab", "b": "cac", "c": "bac"}
    assert len(enumerate_ly_orbits(s)) == 2


def test_orbit_list_shifts_the_minus_one_fiber_into_zero():
    # class 50: the pairs over fiber -1 are the shifts of pairs over fiber
    # 0 and are listed once, in fiber 0 (a list that kept both had six)
    s = _class(50)
    assert s.rules() == {"a": "bac", "b": "cac", "c": "baa"}
    orbits = enumerate_ly_orbits(s)
    assert len(orbits) == 4
    assert len({frozenset(pair) for pair in orbits}) == 4
    minus_one = OdometerDigits(3, (), (2,))
    assert all(x.odometer_digits() != minus_one for x, _ in orbits)


def test_enumerate_orbits_contains_constructed_pair(fixtures):
    for s in [fixtures["aba"]] + _all_classes():
        cp = construct_ly_pair(s)
        listed = {frozenset(pair) for pair in enumerate_ly_orbits(s)}
        assert frozenset((cp.x, cp.y)) in listed, s.rules()


def test_orbit_pairs_differ_on_windows(fixtures):
    # window oracle: the pairs kept by stream identity are also pairwise
    # distinct as windows at the radius that used to deduplicate them
    cases = [
        enumerate_ly_orbits(fixtures["aba"]),
        enumerate_ly_orbits(parse_substitution(FOUR_LETTER_PARTIAL)),
    ] + [enumerate_ly_orbits(_class(i)) for i in (0, 29, 50, 55)]
    for pairs in cases:
        assert pairs
        s = pairs[0][0].subst
        radius = min(2 * s.constant_length ** (s.size**2 + 1), 1 << 22)
        keys = []
        for x, y in pairs:
            wx, wy = x.expand(radius), y.expand(radius)
            assert wx != wy, s.rules()
            keys.append(frozenset((wx, wy)))
        assert len(set(keys)) == len(keys), s.rules()


def _literals(pairs):
    return [(x.to_literal(), y.to_literal()) for x, y in pairs]


def _components(s):
    """Off-diagonal letter pair (i, j) -> its component in ``_pair_layer``."""
    layer = _pair_layer(s)
    n = s.size
    return {
        divmod(q, n): layer.components[c] for q, c in enumerate(layer.component) if c >= 0
    }


def _layer_depths(s):
    """Letter pair (i, j) -> its depth in ``_pair_layer``, for the pairs
    of C∞."""
    depth = _pair_layer(s).depth
    return {divmod(q, s.size): d for q, d in enumerate(depth) if d < len(depth)}


def test_pair_graph_matches_the_reference_engines(fixtures, random_corpus):
    # per target, a component flag holds exactly when the matching
    # fixpoint, run to its first state repeat, hits; the witness, the
    # certificate and the orbit list are those of the references
    cases = [
        *fixtures.values(),
        *_all_classes(),
        parse_substitution(FOUR_LETTER_PARTIAL),
        parse_substitution(DENSE),
        parse_substitution(LAST_MEET),
        *random_corpus,
    ]
    flags = Counter()
    listed = 0
    for s in cases:
        assert _closure_depths(s) == _layer_depths(s), s.rules()
        graph = _components(s)
        hits = {q: stopped_ly_hit(s, q) for q in sorted(graph)}
        for q, hit in hits.items():
            component = graph[q]
            assert component.ly is (hit is not None), (s.rules(), q)
            assert component.unc is (double_engine(s, q) is not None), (s.rules(), q)
            flags[component.ly, component.unc] += 1
        first = next(((q, *hit) for q, hit in hits.items() if q[0] < q[1] and hit), None)
        if first is not None:
            q, level, chain = first
            p = s.constant_length
            first = q, level, sum(t * p**i for i, (_, t) in enumerate(chain))
        assert ly_witness(s) == first, s.rules()
        assert uncountable_certificate(s) == engine_uncountable_certificate(s), s.rules()
        if has_ly_pairs(s) and not has_uncountable_ly(s):
            orbits = _literals(enumerate_ly_orbits(s))
            assert orbits == _literals(walked_ly_orbits(s)[0]), s.rules()
            listed += len(orbits)
    # ``unc`` implies ``ly``: with only diagonal labels each parent holds at
    # most one inner pair, the last off-diagonal one, so the component is
    # one simple cycle
    assert set(flags) == {(False, False), (True, False), (True, True)}
    assert listed >= 120


def test_orbit_list_reads_a_dense_component_once():
    # the reference walk visits every simple cycle of the dense component
    # and keeps none of them; the component pass lists the same 4 pairs
    s = parse_substitution(DENSE)
    reference, cycles = walked_ly_orbits(s)
    assert cycles >= 1000
    layer = _pair_layer(s)
    members = Counter(c for c in layer.component if c >= 0)
    inner = Counter(
        c
        for q, c in enumerate(layer.component)
        if c >= 0
        for parent, _ in layer.occurrences[q]
        if layer.component[parent] == c
    )
    shapes = {(members[c], inner[c], component.ly) for c, component in enumerate(layer.components)}
    assert [members[c] for c in range(len(layer.components))] == [
        c.size for c in layer.components
    ]
    assert (12, 36, False) in shapes
    orbits = enumerate_ly_orbits(s)
    assert len(orbits) == 4
    assert _literals(orbits) == _literals(reference)


def test_orbit_enumeration_needs_no_windows_or_simulator(fixtures, monkeypatch):
    import substchaos.pairs
    import substchaos.simulate
    from substchaos.streams import RepresentedPoint

    expected = enumerate_ly_orbits(fixtures["aba"])
    partial = parse_substitution("a -> aba\nb -> aac\nc -> cba")
    assert coincidence_class(partial).kind is Coincidence.PARTIAL
    assert has_ly_pairs(partial) and not has_uncountable_ly(partial)

    def refuse(*args, **kwargs):
        raise RuntimeError("orbit enumeration must not call this")

    monkeypatch.setattr(substchaos.simulate, "empirical_class", refuse)
    monkeypatch.setattr(substchaos.pairs, "classify_pair", refuse)
    monkeypatch.setattr(RepresentedPoint, "expand", refuse)
    orbits = enumerate_ly_orbits(fixtures["aba"])
    assert len(orbits) == 2
    assert orbits == expected
    # each cycle of a partial-coincidence input is decided from its suffix
    # pairs by the same walk
    assert len(enumerate_ly_orbits(partial)) == 1


# -- scrambled sets ----------------------------------------------------------


def test_scrambled_set_template():
    s, points = build_scrambled_set(1)
    assert s.rules() == {"0": "00010", "1": "01100"}
    assert len(points) == 2
    digits = {tuple(p.pi_digits(10)) for p in points}
    assert len(digits) == 1


@pytest.mark.parametrize("size", [1, 2, 3])
def test_scrambled_sets_fully_li_yorke(size):
    s, points = build_scrambled_set(size)
    assert is_primitive(s)
    assert decide_infinite(s)
    assert len(points) == size + 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            assert classify_pair(points[i], points[j]).kind is PairClass.LI_YORKE


def test_scrambled_set_requires_positive_size():
    with pytest.raises(PreconditionError):
        build_scrambled_set(0)


def _closure_depths(s):
    """Letter pair -> the least d whose d-fold pair image holds a diagonal
    pair, for every pair of C∞: the index of the first set of the
    coincidence chain that holds it."""
    depth = {}
    for d, coin in enumerate(coincidence_chain(s)):
        for q in coin:
            depth.setdefault(q, d)
    return depth


def _li_yorke_horizon(x, y, window):
    """A horizon by which the simulator sees a pair that ``classify_pair``
    calls Li-Yorke both proximal at ``window`` and separated, derived from
    the data the verdict reads (see its docstring).

    ``_past_finite_forward_data`` jumps the pair ``shift`` steps forward;
    after it the suffix letters of level i cover coordinates below
    p^(i+1).  A suffix letter pair q at period level i that enters C∞ at
    depth d recurs at the levels i + tL.  At the first such level i' with
    p^(i' - d) >= 2 window - 1, the image of q holds an agreement run long
    enough for one time to reach radius ``window``, below p^(i'+1) +
    shift.  A differing suffix letter pair at period level j gives a
    separation below p^(j+1) + shift.  The horizon covers the earliest of
    each, and never drops below p^7."""
    p = x.subst.constant_length
    shift = right_end_jump(x)
    k, L, ex, ey = _aligned_entries(*_past_finite_forward_data(x, y))
    depth = _closure_depths(x.subst)
    run = 0  # the least r with p^r >= 2 window - 1
    while p**run < 2 * window - 1:
        run += 1
    proximal, separated = [], []
    for i in range(k, k + L):
        for a, b in zip(ex[i].suffix, ey[i].suffix):
            q = (ord(a), ord(b))
            if q in depth:
                top = i
                while top < depth[q] + run:
                    top += L
                proximal.append(top)
            if a != b:
                separated.append(i)
    level = max(min(proximal), min(separated))
    return max(p**7, p ** (level + 1) + shift)


def test_random_corpus_verdicts_never_contradict_simulator(random_corpus):
    # mini cross-check over the random corpus: classify same-fiber pairs
    # from a few fibers and compare against orbit evidence; a Li-Yorke
    # verdict is checked at the horizon its own data derives, and an
    # asymptotic one must show no difference from p^k + R on, with k the
    # aligned preperiod past the jump and R the jump (the suffixes of the
    # levels from k on are equal, and cover the coordinates from p^k on)
    from substchaos.simulate import empirical_class
    from substchaos.errors import SeparationBoundError

    checked = 0
    for s in random_corpus[:40]:
        p = s.constant_length
        pts = []
        for pre, per in (((), (0,)), ((), (1 % p,)), ((0,), (p - 1,))):
            try:
                pts.extend(enumerate_fiber(s, OdometerDigits(p, pre, per), radius=256))
            except SeparationBoundError:
                continue
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                x, y = pts[i], pts[j]
                if x.odometer_digits() != y.odometer_digits():
                    continue
                verdict = classify_pair(x, y)
                if verdict.kind is PairClass.LI_YORKE:
                    report = empirical_class(x, y, _li_yorke_horizon(x, y, 16), 16)
                    assert report.proximality_count >= 1, s.rules()
                    assert report.separation_count >= 1, s.rules()
                else:
                    k = _aligned_entries(*_past_finite_forward_data(x, y))[0]
                    bound = p**k + right_end_jump(x)
                    report = empirical_class(x, y, max(p**7, 2 * bound), 16)
                if verdict.kind is PairClass.DISTAL:
                    assert report.proximality_count == 0, s.rules()
                elif verdict.kind is PairClass.ASYMPTOTIC:
                    assert report.max_last_difference is None or (
                        report.max_last_difference < bound
                    ), s.rules()
                checked += 1
    assert checked >= 100
