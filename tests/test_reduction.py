"""One-to-one reduction, simplifiability, and the finiteness decision."""

import copy
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from substchaos import (
    Substitution,
    decide_infinite,
    decide_infinite_trace,
    is_simplifiable,
    one_to_one_reduction,
    parse_substitution,
    reduction,
    stream_from_fixed_point,
    substitution,
)
from substchaos.errors import PreconditionError, SearchBudgetError
from substchaos.reduction import _composed, biprolongeable_letters
from substchaos.substitution import is_primitive, language_chr

from conftest import (
    RANK_TWO,
    ComplexityVerdict,
    anagram_substitutions,
    composed_substitutions,
    oracle_infinite_via_complexity,
    rational_rank,
    unpruned_simplification,
)

# The (10,8) input of the benchmark's analyze-tiers corpus, which the
# unpruned search left undecided after its 10^6 candidates.
TIER_TEN_EIGHT = (
    "a -> cajbhfab\nb -> ddfehjde\nc -> djejagce\nd -> eghffgid\ne -> diafifig\n"
    "f -> bagfefjf\ng -> hfcfiafb\nh -> agfbdcha\ni -> behiagfg\nj -> cdfdcgec"
)

# 16 letters, length 12, rational rank 14: the simplification search runs
# out of its 10^6 candidates here, which no decision path may reach
RANK_DEFICIENT = (
    "a -> ecidpopmgdpa\nb -> mnaoihdkaaaa\nc -> mgnahophlhho\nd -> andfjdkngjjp\n"
    "e -> mbphmnfllcod\nf -> mlpapbjmffha\ng -> hmlloiamegnb\nh -> lgnplnlakoah\n"
    "i -> fcibccaoaihi\nj -> moaphhhlngho\nk -> kppdajmkngid\nl -> ccihcoaifaib\n"
    "m -> nhohamknbjeg\nn -> jccjjfnieabg\no -> ofbmgldgngpd\np -> mjpakmjafgke"
)


def test_reduction_merges_equal_images():
    s = parse_substitution("0 -> 01\n1 -> 01")
    red = one_to_one_reduction(s)
    assert red.reduced.alphabet == ("0",)
    assert red.reduced.image("0") == "00"
    assert dict(red.letter_map) == {"0": "0", "1": "0"}


def test_reduction_identity_on_injective(fixtures):
    red = one_to_one_reduction(fixtures["morse"])
    assert red.reduced == fixtures["morse"]
    assert red.steps == 0


def test_reduction_period_two_keeps_two_letters():
    s = parse_substitution("0 -> 010\n1 -> 101")
    red = one_to_one_reduction(s)
    assert red.reduced.size == 2


def test_reduction_idempotent(fixtures):
    for s in fixtures.values():
        red = one_to_one_reduction(s)
        again = one_to_one_reduction(red.reduced)
        assert again.reduced == red.reduced
        assert again.steps == 0


def test_reduction_intertwines_images():
    s = parse_substitution("0 -> 012\n1 -> 012\n2 -> 100")
    red = one_to_one_reduction(s)
    mapping = dict(red.letter_map)
    for tok in s.alphabet:
        image_then_map = "".join(mapping[t] for t in s.image(tok))
        map_then_image = "".join(red.reduced.image(mapping[tok]))
        assert image_then_map == map_then_image


def test_simplifiable_powers_of_a_common_word():
    s = parse_substitution("0 -> 0101\n1 -> 01")
    simp = is_simplifiable(s)
    assert simp is not None
    assert len(simp.target_alphabet) == 1
    assert simp.g == (s.encode("01"),)
    assert simp.f == (("0", "0"), ("0",))


def test_simplifiable_negative_cases(fixtures):
    assert is_simplifiable(fixtures["morse"]) is None
    assert is_simplifiable(parse_substitution("a -> a")) is None


def test_rank_modulus_is_prime():
    # the rank bounds hold over a field, so q = 2^61 - 1 must be prime:
    # by Lucas-Lehmer, 2^p - 1 (p an odd prime) is prime exactly when
    # s_(p-2) = 0 modulo it, with s_0 = 4 and s_(i+1) = s_i^2 - 2
    q = reduction._RANK_PRIME
    assert q == 2**61 - 1
    s = 4
    for _ in range(61 - 2):
        s = (s * s - 2) % q
    assert s == 0


def test_simplifiability_budget(monkeypatch):
    # rank 2 and elementary: the search runs through sizes 2 and 3 and
    # spends 13 candidates, so a budget of 3 or 12 runs out and 13 does
    # not.  The memoised outcome assumes the package's budget, so the
    # table cache is cleared at every change of it: (None, 4) from budget
    # 3 would read as elementary under budget 12.
    s = parse_substitution(RANK_TWO)
    with monkeypatch.context() as mp:
        for budget in (3, 12):
            mp.setattr(reduction, "SIMPLIFIABILITY_BUDGET", budget)
            substitution._tables.cache_clear()
            with pytest.raises(SearchBudgetError):
                is_simplifiable(s)
        mp.setattr(reduction, "SIMPLIFIABILITY_BUDGET", 13)
        substitution._tables.cache_clear()
        assert is_simplifiable(s) is None
    substitution._tables.cache_clear()
    assert is_simplifiable(s) is None


def test_pruned_search_matches_unpruned(fixtures, random_corpus_any):
    # the rank and prefix/suffix bounds only skip sizes and subtrees
    # without a dictionary: the same simplification (dictionary and
    # segmentations) as the unpruned walk, for no more candidates
    anagrams = anagram_substitutions(500)
    assert all(rational_rank(s) < s.size for s in anagrams)
    corpus = [(s, False) for s in list(fixtures.values()) + random_corpus_any + anagrams]
    corpus += [(s, True) for s in composed_substitutions(1000)]
    sizes = {}
    for s, composed in corpus:
        found, spent = reduction._search(s)
        expected, oracle_spent = unpruned_simplification(s)
        assert found == expected, s.rules()
        assert spent <= oracle_spent, s.rules()
        assert found is not None or not composed, s.rules()
        if found is not None:
            sizes.setdefault(s.size, set()).add(len(found.g))
    assert sorted(sizes) == [2, 3, 4, 5, 6]
    for n, seen in sizes.items():
        assert seen == set(range(1, n)), n


# inputs whose search the bounds refuse at the root, with the candidates
# it spends: none at full rank, one per size (2 and 3) at rank 2, where
# four distinct last letters (the first input at rank 2), four distinct
# first letters (the second) or both (the third) ask for four words
ROOT_PRUNED = {
    "a -> ab\nb -> ac\nc -> ad\nd -> aa": 0,
    "a -> ba\nb -> ca\nc -> da\nd -> aa": 0,
    "a -> acdb\nb -> adbc\nc -> abcd\nd -> abda": 2,
    "a -> bdca\nb -> cbda\nc -> dcba\nd -> adba": 2,
    "a -> ba\nb -> ab\nc -> dc\nd -> cd": 2,
}


@pytest.mark.parametrize("source", list(ROOT_PRUNED))
def test_bound_prunes_at_the_root(source):
    # a full-rank substitution is elementary without a search; at rank 2
    # the images need four suffix or four prefix words, more than any
    # dictionary of 2-3 words: each size is refused at its root candidate
    s = parse_substitution(source)
    spent = ROOT_PRUNED[source]
    assert reduction._search(s) == (None, spent)
    assert unpruned_simplification(s)[1] > spent


def test_rank_bound_prunes_below_the_root():
    # rank 3 and elementary, so only size 3 is searched, and there every
    # word whose letter counts leave the span of the images' counts ends
    # its subtree: 5 candidates, where the prefix/suffix bound alone
    # spends 18
    s = parse_substitution("a -> bdb\nb -> bca\nc -> adb\nd -> dbb")
    assert rational_rank(s) == 3
    assert reduction._search(s) == (None, 5)


def test_duplicate_images_are_not_the_first_dictionary():
    # b and c share an image, yet the first dictionary the search finds is
    # not the three distinct images: shorter words come first in the walk
    s = parse_substitution("a -> ccba\nb -> abdc\nc -> abdc\nd -> cbac")
    assert is_primitive(s) and rational_rank(s) == 2
    _, trace = decide_infinite_trace(s)
    assert trace[0]["dictionary"] == ["c", "ba", "abd"]
    found, spent = reduction._search(s)
    assert spent == 28
    assert unpruned_simplification(s) == (found, 55)


def _random_substitutions(count, letters, length, seed):
    rng = random.Random(seed)
    alphabet = tuple(string.ascii_lowercase[:letters])
    out = []
    while len(out) < count:
        rules = {tok: "".join(rng.choice(alphabet) for _ in range(length)) for tok in alphabet}
        s = Substitution.from_rules(rules, alphabet)
        if is_primitive(s):
            out.append(s)
    return out


@pytest.mark.parametrize("letters, length", [(16, 12), (26, 16)])
def test_large_random_inputs_decide(letters, length):
    # the search without the rank bound runs out of its 10^6 candidates on
    # each of these inputs; all are of full rank, which settles them with
    # no candidate spent
    for s in _random_substitutions(4, letters, length, seed=letters * 100 + length):
        assert rational_rank(s) == s.size
        assert reduction._search(s) == (None, 0)
        _, trace = decide_infinite_trace(s)
        assert [record["action"] for record in trace] == ["elementary"]


@st.composite
def composed_rules(draw):
    """A substitution ``g . f`` through an alphabet smaller than A."""
    alphabet = tuple("abcde"[: draw(st.integers(2, 5))])
    word = st.text(alphabet="".join(alphabet), min_size=1, max_size=3)
    g = draw(st.lists(word, min_size=1, max_size=len(alphabet) - 1))
    f = st.lists(st.sampled_from(g), min_size=1, max_size=3)
    rules = {tok: "".join(draw(f)) for tok in alphabet}
    return Substitution.from_rules(rules, alphabet)


@settings(max_examples=200, deadline=None)
@given(composed_rules())
def test_simplification_is_at_least_the_rank(s):
    found, spent = reduction._search(s)
    assert found is not None
    assert len(found.g) >= rational_rank(s)
    expected, oracle_spent = unpruned_simplification(s)
    assert found == expected
    assert spent <= oracle_spent


def test_budget_tier_input_is_decided():
    s = parse_substitution(TIER_TEN_EIGHT)
    found, spent = reduction._search(s)
    assert found is None
    assert spent < 10**5
    infinite, trace = decide_infinite_trace(s)
    assert infinite is True
    assert [record["action"] for record in trace] == ["elementary"]


def test_rank_deficient_tier_input_is_decided():
    # the (10,8) input with the images of i and j anagrams of that of a:
    # rank 8, so the search runs at sizes 8 and 9; the rank bound cannot
    # refuse a node at size 9, where only the prefix/suffix bound keeps
    # the search within 10^5 candidates
    source = TIER_TEN_EIGHT.replace("i -> behiagfg", "i -> cahbafbj")
    s = parse_substitution(source.replace("j -> cdfdcgec", "j -> bahfbjca"))
    assert rational_rank(s) == 8
    found, spent = reduction._search(s)
    assert found is None
    assert spent < 10**5
    infinite, trace = decide_infinite_trace(s)
    assert infinite is True
    assert [record["action"] for record in trace] == ["elementary"]


def _counting_walks(monkeypatch):
    """The images of every search walked from now on: ``_cover`` is
    called once per walk."""
    walks = []
    cover = reduction._cover

    def counting(table, sizes):
        walks.append(table.images)
        return cover(table, sizes)

    monkeypatch.setattr(reduction, "_cover", counting)
    return walks


def test_budget_outcome_is_memoised(monkeypatch):
    # the table cache keeps no exceptions, so the budget outcome is kept as
    # a value: a second trace raises afresh without a second walk
    import traceback

    # rank 2, and the search spends 1 candidate, past a budget of 0
    s = parse_substitution("a -> abcb\nb -> bcab\nc -> cabc")
    walks = _counting_walks(monkeypatch)
    monkeypatch.setattr(reduction, "SIMPLIFIABILITY_BUDGET", 0)
    substitution._tables.cache_clear()
    errors = []
    try:
        for _ in range(2):
            with pytest.raises(SearchBudgetError) as err:
                decide_infinite_trace(s)
            errors.append(err.value)
    finally:
        substitution._tables.cache_clear()
    assert walks == [s.images]
    first, second = errors
    assert first is not second
    # raised outside the cache's miss handler: no KeyError in the chain
    assert first.__context__ is None and second.__context__ is None
    assert str(second) == str(first)
    assert len(traceback.extract_tb(second.__traceback__)) == len(
        traceback.extract_tb(first.__traceback__)
    )


@pytest.mark.parametrize("budget", [0, 7])
def test_exhausted_search_is_a_value(budget, monkeypatch):
    # RANK_TWO spends 1 candidate at size 2 and 12 at size 3: a budget of
    # 0 runs out at size 2 and 7 at size 3.  The search stops at the first
    # candidate past the budget, with no further size, and returns its
    # count; each asker charges that count afresh, over one walk.
    s = parse_substitution(RANK_TWO)
    walks = _counting_walks(monkeypatch)
    monkeypatch.setattr(reduction, "SIMPLIFIABILITY_BUDGET", budget)
    substitution._tables.cache_clear()
    errors = []
    try:
        assert reduction._search(s) == (None, budget + 1)
        for ask in (decide_infinite_trace, decide_infinite_trace, is_simplifiable, is_simplifiable):
            with pytest.raises(SearchBudgetError) as err:
                ask(s)
            errors.append(err.value)
    finally:
        substitution._tables.cache_clear()
    assert walks == [s.images]
    assert len({id(error) for error in errors}) == 4
    assert {str(error) for error in errors} == {
        "simplifiability search exceeded its candidate budget"
    }


@pytest.mark.parametrize(
    "source, expected",
    [
        ("0 -> 01\n1 -> 01", False),
        ("0 -> 010\n1 -> 101", False),
        ("0 -> 01\n1 -> 10", True),
        ("0 -> 01\n1 -> 00", True),
        ("0 -> 010\n1 -> 100", True),
        ("a -> aba\nb -> bca\nc -> cca", True),
        ("a -> baacd\nb -> bbbcd\nc -> bcaba\nd -> bdabd", True),
        ("0 -> 0123\n1 -> 1032\n2 -> 1023\n3 -> 0132", True),
    ],
)
def test_decide_infinite_fixtures(source, expected):
    assert decide_infinite(parse_substitution(source)) is expected


def test_decide_infinite_requires_primitive():
    with pytest.raises(PreconditionError):
        decide_infinite_trace(parse_substitution("0 -> 00\n1 -> 11"))


def test_morse_biprolongeable_letters(fixtures):
    assert biprolongeable_letters(fixtures["morse"]) == ("0", "1")


def test_decision_trace_shows_simplification():
    s = parse_substitution("0 -> 01\n1 -> 01")
    infinite, trace = decide_infinite_trace(s)
    assert not infinite
    assert trace[0]["action"] == "simplified"
    assert trace[0]["dictionary"] == ["01"]
    assert trace[-1]["infinite"] is False


def test_returned_trace_is_fresh():
    s = parse_substitution("0 -> 01\n1 -> 01")
    infinite, trace = decide_infinite_trace(s)
    before = copy.deepcopy(trace)
    trace[0]["dictionary"].append("10")
    trace[0]["action"] = "elementary"
    trace.append({"action": "singleton"})
    assert decide_infinite_trace(s) == (infinite, before)


def test_elementary_record_is_fresh(fixtures):
    # the memoised letters are a tuple; each trace record holds its own list
    morse = fixtures["morse"]
    infinite, trace = decide_infinite_trace(morse)
    assert trace[-1]["biprolongeable"] == ["0", "1"]
    trace[-1]["biprolongeable"].append("2")
    assert decide_infinite_trace(morse)[1][-1]["biprolongeable"] == ["0", "1"]
    assert biprolongeable_letters(morse) == ("0", "1")


def test_one_to_one_analyze_reads_the_followers_once(fixtures, monkeypatch):
    # on a one-to-one input the trace's elementary round and
    # ``decide_infinite``, reached through ``fiber_bound``, read the same
    # memoised letters: one pass over L_2 per ``analyze``
    from substchaos import analyze, reduction, substitution

    passes = []

    def counted(subst, length):
        passes.append(length)
        return language_chr(subst, length)

    monkeypatch.setattr(reduction, "language_chr", counted)
    substitution._tables.cache_clear()
    try:
        for name in ("morse", "ly_two", "baacd"):
            s = fixtures[name]
            assert s.is_injective()
            passes.clear()
            analyze(s)
            assert passes == [2], name
            substitution._tables.cache_clear()
    finally:
        substitution._tables.cache_clear()


def test_oracle_examples(fixtures):
    reduced = one_to_one_reduction(parse_substitution("0 -> 01\n1 -> 01")).reduced
    assert oracle_infinite_via_complexity(reduced, 8) is ComplexityVerdict.FINITE
    assert (
        oracle_infinite_via_complexity(fixtures["morse"], 8)
        is ComplexityVerdict.INFINITE_EVIDENCE
    )
    assert (
        oracle_infinite_via_complexity(fixtures["morse"], 0)
        is ComplexityVerdict.INCONCLUSIVE
    )


def test_oracle_agreement_on_fixtures_and_random(fixtures, random_corpus_any):
    candidates = list(fixtures.values()) + [
        parse_substitution("0 -> 01\n1 -> 01"),
        parse_substitution("0 -> 010\n1 -> 101"),
    ]
    candidates += random_corpus_any
    for s in candidates:
        verdict = oracle_infinite_via_complexity(s, 64)
        if verdict is ComplexityVerdict.INCONCLUSIVE:
            continue
        expected = decide_infinite(s)
        assert (verdict is ComplexityVerdict.INFINITE_EVIDENCE) == expected, s.rules()


def test_conjugacy_evidence_on_windows():
    # an infinite subshift with a non-injective substitution: the reduction
    # must reproduce the same expanded windows under the letter map
    from conftest import fixed_points

    s = parse_substitution("0 -> 021\n1 -> 021\n2 -> 201")
    assert is_primitive(s)
    assert decide_infinite(s)
    red = one_to_one_reduction(s)
    assert red.reduced.size < s.size
    mapping = dict(red.letter_map)
    points = fixed_points(s)
    assert points
    compared = 0
    seen_windows = set()
    for x in points:
        lit = x.to_literal()
        window = x.window(1024)
        mapped = "".join(mapping[t] for t in window)
        left = mapping[lit["left_seed"]]
        right = mapping[x.window(0)]
        y = stream_from_fixed_point(red.reduced, left, right)
        assert mapped == y.window(1024)
        seen_windows.add(window)
        compared += 1
    assert compared >= 2
    # the letter map stays injective on distinct sampled windows
    mapped_windows = {"".join(mapping[t] for t in w) for w in seen_windows}
    assert len(mapped_windows) == len(seen_windows)


def _periodic_cuts(count, seed):
    """Primitive substitutions with a finite subshift: the letters of a
    word ``u`` are distinct, and the images of its letters, in order, are
    consecutive cuts of ``u^k``, so σ fixes the periodic point ``u^∞``
    and every iterate is a factor of it.  About a third have cuts of
    unequal length, and the constant-length ones are non-injective when
    the length shares a factor with ``|u|`` (deterministic seed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = rng.randint(2, 5)
        u = "".join(rng.sample("abcde", m))
        k = rng.randint(2, 4)
        if rng.random() < 0.3:
            cuts = sorted(rng.sample(range(1, k * m), m - 1))
        else:
            cuts = list(range(k, k * m, k))
        bounds = [0] + cuts + [k * m]
        word = u * k
        rules = {u[i]: word[bounds[i] : bounds[i + 1]] for i in range(m)}
        s = Substitution.from_rules(rules, tuple(sorted(u)))
        if is_primitive(s):
            out.append(s)
    return out


def test_criterion_agrees_with_the_trace(fixtures, random_corpus_any, variable_corpus):
    finite = _periodic_cuts(200, seed=17)
    assert any(s.constant_length is None for s in finite)
    assert any(not s.is_injective() for s in finite)
    corpus = list(fixtures.values()) + random_corpus_any + variable_corpus + finite
    corpus += [s for s in anagram_substitutions(500) if is_primitive(s)]
    verdicts = set()
    for s in corpus:
        infinite = decide_infinite(s)
        assert infinite == decide_infinite_trace(s)[0], s.rules()
        verdicts.add(infinite)
    assert not any(decide_infinite(s) for s in finite)
    assert verdicts == {False, True}


def test_the_proofs_behind_the_unchecked_steps_hold(
    fixtures, random_corpus, random_corpus_any, variable_corpus
):
    # every letter of a primitive input has a left neighbour in L_2, where
    # pairs._lambda_periodic_predecessor starts its walk, every
    # simplification rebuilds each image, which is_simplifiable does not
    # check, and every substitution that the trace composes is primitive,
    # which decide_infinite_trace does not check again
    corpus = list(fixtures.values()) + random_corpus + random_corpus_any + variable_corpus
    corpus += [s for s in composed_substitutions(1000) if is_primitive(s)]
    composed = set()
    for s in corpus:
        letters = {chr(i) for i in range(s.size)}
        assert {w[1] for w in language_chr(s, 2)} == letters, s.rules()
        simp = is_simplifiable(s)
        while simp is not None:
            for a, word in enumerate(simp.f):
                assert "".join(simp.g[int(t)] for t in word) == s.images[a], s.rules()
            s = _composed(simp)
            assert is_primitive(s), s.rules()
            composed.add(s)
            simp = is_simplifiable(s)
    assert len(composed) > 50


def test_decision_paths_never_search(fixtures, monkeypatch):
    # every decision reads the right-extension rule: with the search
    # raising, the rank-deficient input and the fixtures still decide
    from substchaos import (
        OdometerDigits,
        classify_pair,
        enumerate_fiber,
        fiber_bound,
        has_ly_pairs,
        has_uncountable_ly,
        li_yorke_certificate,
        reduction,
        substitution,
        tower_substitution,
    )

    from conftest import fixed_points

    def no_search(*args, **kwargs):
        raise AssertionError("the simplification search ran")

    monkeypatch.setattr(reduction, "is_simplifiable", no_search)
    substitution._tables.cache_clear()
    try:
        corpus = list(fixtures.values()) + [parse_substitution(RANK_DEFICIENT)]
        for s in corpus:
            assert decide_infinite(s)
            assert fiber_bound(s) >= s.size
            has_ly_pairs(s)
            has_uncountable_ly(s)
            li_yorke_certificate(s)
            p = s.constant_length
            assert enumerate_fiber(s, OdometerDigits(p, (), (0, p - 1)))
            x, *others = fixed_points(s)
            for y in others + [x.shift()]:
                classify_pair(x, y)
        assert tower_substitution(5).size == 6
        with pytest.raises(AssertionError):
            decide_infinite_trace(parse_substitution(RANK_DEFICIENT))
    finally:
        substitution._tables.cache_clear()


def test_right_special_letter_of_a_finite_variable_length_input():
    # (aab)^∞ is the fixed point: `a` is followed by `a` and `b`, yet the
    # subshift is finite, so variable length keeps the trace's verdict
    s = parse_substitution("a -> aab\nb -> aabaab")
    assert is_primitive(s)
    assert biprolongeable_letters(s) == ("a",)
    assert decide_infinite(s) is False
