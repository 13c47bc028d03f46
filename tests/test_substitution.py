"""Core substitution operations: parsing, iteration, primitivity,
language generation, the pair substitution."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from substchaos import (
    ParseError,
    Substitution,
    analyze,
    complexity,
    incidence_matrix,
    is_primitive,
    iterate,
    language,
    pair_substitution,
    parse_substitution,
    sorted_language,
    stream_from_fixed_point,
    substitution,
)
from substchaos.errors import BudgetExceededError, InvariantError, PreconditionError
from substchaos.substitution import (
    _byte_columns,
    _two_letter_words,
    in_language,
    iterate_chr,
    iterate_slice,
    language_chr,
)

from conftest import (
    CORPUS_SEED,
    closure_language_chr,
    desubstitute,
    primitive_by_powers,
    recursive_in_language,
    round_two_letter_words,
)


def test_parse_morse():
    s = parse_substitution("0 -> 01\n1 -> 10")
    assert s.alphabet == ("0", "1")
    assert s.rules() == {"0": "01", "1": "10"}
    assert s.constant_length == 2


def test_parse_single_letter():
    s = parse_substitution("a -> a")
    assert s.rules() == {"a": "a"}
    assert s.constant_length == 1


def test_parse_variable_length():
    s = parse_substitution("0 -> 01\n1 -> 0")
    assert s.constant_length is None


def test_parse_comments_blanks_and_backticks():
    s = parse_substitution("# morse\n\n`zero` -> `zero` x  # trailing\nx -> x `zero`\n")
    assert s.alphabet == ("zero", "x")
    assert s.image("zero") == ("zero", "x")


def test_parse_json_document():
    s = parse_substitution('{"alphabet": ["0", "1"], "rules": {"0": "01", "1": "10"}}')
    assert s == parse_substitution("0 -> 01\n1 -> 10")


def test_a_repeated_key_is_found_in_time_linear_in_the_keys():
    # 20,000 rules with the first key repeated last; a search that builds
    # the keys before each position anew takes seconds at this size
    rules = ", ".join(f'"x{i}": "x0"' for i in range(20000))
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_substitution('{"rules": {' + rules + ', "x0": "x0"}}')
    assert time.perf_counter() - start < 2
    assert str(info.value) == "line 1, column 1: invalid JSON: duplicate key 'x0'"


def test_parse_json_alphabet_is_a_list_or_the_rule_order():
    # a missing, null or empty-list alphabet takes the order of the rules;
    # any other value that is not a list of letters, a string among them,
    # is refused (tests/test_refusals.py)
    expected = parse_substitution("b -> ab\na -> ba")
    rules = '"rules": {"b": "ab", "a": "ba"}'
    for alphabet in ("", ', "alphabet": null', ', "alphabet": []'):
        assert parse_substitution("{" + rules + alphabet + "}") == expected
    assert parse_substitution("{" + rules + ', "alphabet": ["a", "b"]}').alphabet == ("a", "b")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0 -> 01\n0 -> 10", "duplicate"),
        ("0 -> 0x", "unknown letter"),
        ("0 ->", "empty image"),
        ("0 -> 01 -> 10", "exactly one"),
        ("-> 01", "single letter"),
        ("0 -> `unclosed", "unterminated"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_substitution(text)
    assert fragment in str(err.value)


def test_iterate_morse():
    s = parse_substitution("0 -> 01\n1 -> 10")
    assert iterate(s, "0", 3) == "01101001"
    assert iterate(s, "0110", 0) == "0110"


def test_iterate_three_letter_images():
    s = parse_substitution("0 -> 010\n1 -> 100")
    assert iterate(s, "0", 2) == "010100010"


def test_iterate_rejects_out_of_range_letter_indices():
    s = parse_substitution("0 -> 01\n1 -> 10")
    assert iterate(s, [1, 0], 1) == "1001"
    with pytest.raises(InvariantError):
        iterate(s, [5], 1)
    with pytest.raises(InvariantError):
        iterate(s, [-1], 1)


def test_iterate_budget(monkeypatch):
    s = parse_substitution("0 -> 01\n1 -> 10")
    monkeypatch.setattr(substitution, "DEFAULT_WORD_BUDGET", 2**20)
    with pytest.raises(BudgetExceededError):
        iterate(s, "0", 30)


def test_every_word_check_reads_the_one_budget(fixtures, monkeypatch):
    # the window and the brute-force bound are checked against the budget
    # of the substitution module as it is at call time
    monkeypatch.setattr(substitution, "DEFAULT_WORD_BUDGET", 1000)
    point = stream_from_fixed_point(fixtures["morse"], "1", "0")
    with pytest.raises(BudgetExceededError) as info:
        point.expand(5000)
    assert str(info.value) == "expansion exceeds the word budget"
    with pytest.raises(BudgetExceededError) as info:
        analyze(fixtures["ly_two"], brute_bound=5000)
    assert str(info.value) == "brute-force bound 5000 exceeds the word budget"


def test_incidence_matrix_columns_sum_to_lengths():
    s = parse_substitution("a -> baacd\nb -> bbbcd\nc -> bcaba\nd -> bdabd")
    m = incidence_matrix(s)
    for b in range(4):
        assert sum(m[a][b] for a in range(4)) == 5


def test_primitivity():
    assert is_primitive(parse_substitution("0 -> 01\n1 -> 10"))
    assert not is_primitive(parse_substitution("0 -> 00\n1 -> 11"))
    assert is_primitive(parse_substitution("a -> aba\nb -> bca\nc -> cca"))
    # strongly connected with period 2, and not strongly connected
    assert not is_primitive(parse_substitution("0 -> 11\n1 -> 00"))
    assert not is_primitive(parse_substitution("0 -> 01\n1 -> 11"))
    assert is_primitive(parse_substitution("0 -> 0"))


def random_images(rng, n):
    """Images over n letters of lengths 1-4; half the time each image
    draws from one or two letters only, so that the letter graph is
    often not strongly connected or periodic."""
    sparse = rng.random() < 0.5
    images = []
    for _ in range(n):
        pool = rng.sample(range(n), min(n, rng.randint(1, 2))) if sparse else range(n)
        images.append("".join(chr(rng.choice(pool)) for _ in range(rng.randint(1, 4))))
    return tuple(images)


def test_is_primitive_matches_the_power_walk_on_random_inputs():
    rng = random.Random(CORPUS_SEED + 26)
    verdicts = set()
    for _ in range(4000):
        n = rng.randint(1, 7)
        s = Substitution(tuple(map(str, range(n))), random_images(rng, n))
        expected = primitive_by_powers(s)
        assert is_primitive(s) is expected, s.rules()
        verdicts.add(expected)
    assert verdicts == {True, False}


def slow_mixing(n):
    """Letter i -> (i+1)(i+1), the last letter -> 0 1: primitive, with an
    exponent near the Wielandt bound, so the power walk takes about n^2
    steps over n letter sets."""
    images = tuple(chr(i + 1) * 2 for i in range(n - 1)) + (chr(0) + chr(1),)
    return Substitution(tuple(map(str, range(n))), images)


def test_is_primitive_on_the_slow_mixing_family():
    assert is_primitive(slow_mixing(25)) and primitive_by_powers(slow_mixing(25))
    assert is_primitive(slow_mixing(2000))
    # the last letter -> 0 0 instead: one cycle through every letter,
    # strongly connected with period 2000; -> itself twice: 0 is reached
    # from no letter
    s = slow_mixing(2000)
    for last in (chr(0) * 2, chr(1999) * 2):
        assert not is_primitive(Substitution(s.alphabet, s.images[:-1] + (last,)))


def test_language_morse():
    s = parse_substitution("0 -> 01\n1 -> 10")
    assert sorted_language(s, 3) == ["001", "010", "011", "100", "101", "110"]
    assert language(s, 1) == {"0", "1"}
    # independent check: factors of a long direct iterate
    big = iterate(s, "0", 8)
    brute = {big[i : i + 3] for i in range(len(big) - 2)}
    assert brute == set(sorted_language(s, 3))


def test_language_toeplitz_two():
    s = parse_substitution("0 -> 01\n1 -> 00")
    assert language(s, 2) == {"00", "01", "10"}


def test_complexity_morse():
    s = parse_substitution("0 -> 01\n1 -> 10")
    assert complexity(s, 4) == [2, 4, 6, 10]
    assert complexity(s, 0) == []


def test_complexity_toeplitz():
    s = parse_substitution("0 -> 01\n1 -> 00")
    assert complexity(s, 3) == [2, 3, 5]


def test_complexity_periodic_reduction():
    reduced = parse_substitution("0 -> 00")
    assert complexity(reduced, 5) == [1, 1, 1, 1, 1]


def test_pair_substitution_morse():
    s = parse_substitution("0 -> 01\n1 -> 10")
    ps = pair_substitution(s)
    assert ps.image("(0,1)") == ("(0,1)", "(1,0)")
    assert ps.image("(0,0)") == ("(0,0)", "(1,1)")


def test_pair_substitution_three():
    s = parse_substitution("0 -> 010\n1 -> 100")
    ps = pair_substitution(s)
    assert ps.image("(0,1)") == ("(0,1)", "(1,0)", "(0,0)")


def test_pair_substitution_rejects_variable():
    with pytest.raises(Exception):
        pair_substitution(parse_substitution("0 -> 01\n1 -> 0"))


def test_in_language_exact():
    s = parse_substitution("0 -> 01\n1 -> 10")
    big = iterate(s, "0", 10)
    assert in_language(s, s.encode(big[100:180]))
    assert not in_language(s, s.encode("000"))
    assert not in_language(s, s.encode("0" * 50))


def test_desubstitute_yields_true_parents(fixtures):
    # a factor u[i : i + m] of u = σ(v) came from the slice of v covering
    # blocks i // p .. (i + m - 1) // p, read from position i % p
    for name, s in fixtures.items():
        p = s.constant_length
        v = chr(0)
        while len(v) * p < 400:
            v = s.apply(v)
        u = s.apply(v)
        for m in range(10, 41):
            for i in range(len(u) - m):
                w = u[i : i + m]
                yields = list(desubstitute(s, w))
                for start, parent in yields:
                    assert s.apply(parent)[start : start + m] == w, (name, w, parent)
                true_parent = v[i // p : -(-(i + m) // p)]
                assert (i % p, true_parent) in yields, (name, i, m)


def test_desubstitute_preconditions(fixtures):
    with pytest.raises(PreconditionError):
        list(desubstitute(fixtures["aba"], chr(0) * 2))
    with pytest.raises(PreconditionError):
        list(desubstitute(parse_substitution("0 -> 01\n1 -> 0"), chr(0) * 4))


def test_in_language_matches_closure_oracle(fixtures):
    # every word of the language and every one-letter change of it, up to
    # a few letters past the enumerated base where de-substitution starts
    for name, s in fixtures.items():
        if not s.is_injective():
            continue
        limit = max(2 * s.constant_length + 2, 4)
        letters = [chr(i) for i in range(s.size)]
        for n in range(1, limit + 4):
            expected = closure_language_chr(s, n)
            for w in expected:
                assert in_language(s, w), (name, w)
                for i in range(n):
                    for c in letters:
                        v = w[:i] + c + w[i + 1 :]
                        assert in_language(s, v) == (v in expected), (name, v)


def _injective_inputs():
    """Six seeded primitive injective inputs for each |A| and p in 2..4."""
    rng = random.Random(CORPUS_SEED + 5)
    out = []
    for n in (2, 3, 4):
        for p in (2, 3, 4):
            found = []
            while len(found) < 6:
                rules = {chr(97 + a): "".join(rng.choice("abcd"[:n]) for _ in range(p)) for a in range(n)}
                s = Substitution.from_rules(rules)
                if s.is_injective() and is_primitive(s):
                    found.append(s)
            out += found
    return out


def test_in_language_matches_the_recursive_reference(fixtures):
    # factors of a long iterate at lengths 1-1,500, each with a one-letter
    # mutant, against the recursive de-substitution it replaced
    inputs = [s for s in fixtures.values() if s.is_injective()] + _injective_inputs()
    assert len(inputs) == 60
    rng = random.Random(CORPUS_SEED + 6)
    for s in inputs:
        u = chr(0)
        while len(u) < 4000:
            u = s.apply(u)
        for _ in range(150):
            length = rng.randint(1, 1500)
            i = rng.randrange(len(u) - length)
            w = u[i : i + length]
            k = rng.randrange(length)
            v = w[:k] + chr(rng.randrange(s.size)) + w[k + 1 :]
            assert in_language(s, w) and recursive_in_language(s, w), (s, w)
            assert in_language(s, v) == recursive_in_language(s, v), (s, v)


@pytest.mark.parametrize("rules", ["0 -> 00\n1 -> 11", "0 -> 1\n1 -> 0"])
def test_in_language_refuses_outside_its_domain(rules):
    # two inputs that are not primitive, one of them never growing
    with pytest.raises(PreconditionError):
        in_language(parse_substitution(rules), chr(0) * 9)


@pytest.mark.parametrize(
    "rules",
    ["0 -> 01\n1 -> 0", "0 -> 01\n1 -> 01", "a -> ab\nb -> ca\nc -> a", "a -> aab\nb -> ba"],
)
def test_in_language_of_any_primitive_input(rules):
    # variable length and a repeated image: the covering words are proved
    # for every primitive input, so membership is every word against the
    # listing
    s = parse_substitution(rules)
    letters = [chr(i) for i in range(s.size)]
    for n in range(1, 9):
        listed = set(language_chr(s, n))
        for w in map("".join, itertools.product(letters, repeat=n)):
            assert in_language(s, w) == (w in listed), (rules, w)


def test_in_language_of_the_empty_word_and_of_one_letter(fixtures):
    assert in_language(fixtures["morse"], "")
    one = parse_substitution("0 -> 0")
    assert in_language(one, chr(0) * 50)
    assert not in_language(one, chr(0) * 49 + chr(1))


# -- the one-pass language listing -------------------------------------------

LENGTHS = range(1, 66)
# The closure oracle at every length of the 240 corpus inputs takes about
# three minutes; they are compared at these lengths, the fixtures at all.
CORPUS_LENGTHS = (*range(1, 17), 33, 65)


def test_language_matches_closure_oracle(fixtures, random_corpus_any, variable_corpus):
    # the unmemoised listing, so every length of every input stays out of
    # the cache
    listing = language_chr.__wrapped__
    for s in fixtures.values():
        counts = []
        for n in LENGTHS:
            expected = closure_language_chr(s, n)
            assert listing(s, n) == expected, (s.rules(), n)
            counts.append(len(expected))
        assert complexity(s, LENGTHS[-1]) == counts, s.rules()
    for s in [*random_corpus_any, *variable_corpus]:
        for n in CORPUS_LENGTHS:
            assert listing(s, n) == closure_language_chr(s, n), (s.rules(), n)
        counts = [len(listing(s, n)) for n in LENGTHS]
        assert complexity(s, LENGTHS[-1]) == counts, s.rules()


def test_language_words_extend_both_ways(fixtures, random_corpus_any, variable_corpus):
    listing = language_chr.__wrapped__
    for s in [*fixtures.values(), *random_corpus_any, *variable_corpus]:
        shorter = listing(s, 1)
        for n in LENGTHS[1:]:
            longer = listing(s, n)
            assert {w[:-1] for w in longer} == shorter, (s.rules(), n)
            assert {w[1:] for w in longer} == shorter, (s.rules(), n)
            shorter = longer


def short_image_corpus(count=300, seed=CORPUS_SEED + 5):
    """Primitive substitutions with at least one image of length 1, images
    of length 1 to 6, |A| <= 6 (deterministic seed)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alphabet = tuple("abcdef"[: rng.randint(2, 6)])
        rules = {
            tok: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            for tok in alphabet
        }
        rules[rng.choice(alphabet)] = rng.choice(alphabet)
        s = Substitution.from_rules(rules, alphabet)
        if is_primitive(s):
            out.append(s)
    return out


def test_two_letter_words_match_the_round_closure(fixtures, random_corpus_any, variable_corpus):
    corpus = [*fixtures.values(), *random_corpus_any, *variable_corpus, *short_image_corpus()]
    for s in corpus:
        assert _two_letter_words(s) == round_two_letter_words(s), s.rules()


def test_two_letter_words_apply_no_more_than_the_seed(
    fixtures, random_corpus_any, variable_corpus, monkeypatch
):
    # the closure reads last and first letters of images; whatever |L_2|
    # is, σ is applied to no more words than one round over the letters
    calls = []
    apply = Substitution.apply
    monkeypatch.setattr(Substitution, "apply", lambda s, w: calls.append(w) or apply(s, w))
    for s in [*fixtures.values(), *random_corpus_any, *variable_corpus]:
        calls.clear()
        words = _two_letter_words(s)
        assert len(calls) <= s.size, (s.rules(), len(words))


BULK_LENGTHS = (1, 2, 3, 17, 65)
BULK_SOURCES = {
    "one-char": "0 -> 0123\n1 -> 1032\n2 -> 1023\n3 -> 0132",
    "variable": "a -> aab\nb -> ba",
    "tokens": "`zero` -> `zero` x `two`\nx -> `two` `zero` x\n`two` -> x x `zero`",
    "one-letter": "a -> aa",
    "one-token": "`aa` -> `aa` `aa` `aa`",
}


@pytest.mark.parametrize("text", BULK_SOURCES.values(), ids=BULK_SOURCES.keys())
def test_listing_is_decoded_once_and_equals_word_by_word(text, monkeypatch):
    s = parse_substitution(text)
    expected = {
        n: [s.decode(w) for w in sorted(language_chr(s, n))] for n in BULK_LENGTHS
    }
    calls = []
    decode = Substitution.decode
    monkeypatch.setattr(Substitution, "decode", lambda s, w: calls.append(w) or decode(s, w))
    for n in BULK_LENGTHS:
        calls.clear()
        assert sorted_language(s, n) == expected[n], n
        assert len(calls) == 1
        calls.clear()
        assert language(s, n) == set(expected[n]), n
        assert len(calls) == 1
        assert all(len(w) == n for w in expected[n])


def test_iterate_slice_matches_full():
    s = parse_substitution("a -> aba\nb -> bca\nc -> cca")
    word = s.encode("ab")
    for count in range(6):
        full = iterate_chr(s, word, count)
        n = len(full)
        slices = [(0, 40), (n - 40, n), (0, n), (0, 0), (n, n), (n - 1, n + 5)]
        slices += [(start, start + width) for start in range(0, n, 7) for width in (1, 9, 28)]
        for start, stop in slices:
            start = max(start, 0)
            got = iterate_slice(s, word, count, start, stop)
            assert got == full[start:stop], (count, start, stop)
    with pytest.raises(PreconditionError):
        iterate_slice(parse_substitution("a -> ab\nb -> a"), "\x00", 2, 0, 1)
    with pytest.raises(PreconditionError):
        iterate_slice(s, word, 2, 5, 4)


def _slices(rng, n):
    """Edge slices of a word of length ``n`` (empty, at the end, past the
    end) plus seeded random ones."""
    cases = [(0, 0), (0, n), (n, n), (n - 1, n), (max(n - 3, 0), n + 4), (n + 2, n + 9)]
    for _ in range(12):
        start = rng.randrange(n + 3)
        cases.append((start, start + rng.randrange(n + 3)))
    return cases


def test_iterate_slice_matches_full_on_random_constant_length_inputs():
    # the byte-column kernel, |A| 2..8 and p 2..6, against whole iterates
    rng = random.Random(25)
    for _ in range(60):
        size, p = rng.randint(2, 8), rng.randint(2, 6)
        images = tuple("".join(chr(rng.randrange(size)) for _ in range(p)) for _ in range(size))
        s = Substitution(tuple(f"t{i}" for i in range(size)), images)
        assert len(_byte_columns(s)) == p
        word = "".join(chr(rng.randrange(size)) for _ in range(rng.randint(1, 3)))
        for count in range(5 if p < 5 else 4):
            full = iterate_chr(s, word, count)
            for start, stop in _slices(rng, len(full)):
                assert iterate_slice(s, word, count, start, stop) == full[start:stop], (
                    images, word, count, start, stop)


@pytest.mark.parametrize("size", [256, 300])
def test_iterate_slice_on_the_byte_limit_and_past_it(size):
    # i -> (i+1) 0 (i+2): primitive, since 0 maps to itself and i to i+1;
    # 256 letters still take the byte kernel, more keep ``apply``
    images = tuple(chr((i + 1) % size) + chr(0) + chr((i + 2) % size) for i in range(size))
    s = Substitution(tuple(map(str, range(size))), images)
    assert (_byte_columns(s) is None) == (size > 256)
    rng = random.Random(size)
    word = chr(size - 1) + chr(size - 2)
    for count in range(6):
        full = iterate_chr(s, word, count)
        for start, stop in _slices(rng, len(full)):
            assert iterate_slice(s, word, count, start, stop) == full[start:stop], (count, start)
    assert is_primitive(s)


# -- structural invariants ---------------------------------------------------


def test_substitution_invariants_rejected():
    with pytest.raises(InvariantError):
        Substitution(("0", "0"), ("\x00", "\x00"))
    with pytest.raises(InvariantError):
        Substitution(("0",), ("",))
    with pytest.raises(InvariantError):
        Substitution(("0",), ("\x01",))


def test_unknown_letter_check_order_and_message():
    # the images are checked in alphabet order, each for emptiness and then
    # for codes past the alphabet; in the first case only the second image
    # holds a bad code
    with pytest.raises(InvariantError, match=r"^image of 'b' uses an unknown letter$"):
        Substitution(("a", "b"), ("\x00\x01", "\x01\x02\x00"))
    with pytest.raises(InvariantError, match=r"^image of 'a' uses an unknown letter$"):
        Substitution(("a", "b"), ("\x00\U0010ffff", ""))
    with pytest.raises(InvariantError, match=r"^empty image for letter 'a'$"):
        Substitution(("a", "b"), ("", "\x05"))


def test_derived_attributes_are_computed_once():
    # constant_length, the hash, the one-character-token flag and the
    # letter index are plain attributes set at construction, after the
    # fields (alphabet, images); equality, repr and the hash value are over
    # the fields, and no attribute can be assigned or deleted
    s = parse_substitution("a -> aba\nb -> bca\nc -> cca")
    assert {"constant_length", "_hash", "_one_char_tokens", "_index"} <= set(vars(s))
    assert list(vars(s))[:2] == ["alphabet", "images"]
    for name in ("alphabet", "images", "constant_length", "_hash", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        with pytest.raises(AttributeError):
            delattr(s, name)
    assert s != (s.alphabet, s.images)
    assert s != Substitution(s.alphabet, s.images[::-1])
    assert s.constant_length == 3
    assert parse_substitution("0 -> 01\n1 -> 0").constant_length is None
    assert hash(s) == hash((s.alphabet, s.images))
    twin = Substitution.from_rules(s.rules(), s.alphabet)
    assert twin == s and hash(twin) == hash(s) and twin is not s
    assert repr(s) == f"Substitution(alphabet={s.alphabet!r}, images={s.images!r})"
    assert s._one_char_tokens
    assert not parse_substitution("`zero` -> `zero` x\nx -> x `zero`")._one_char_tokens


@pytest.mark.parametrize(
    "text", ["0 -> 01\n1 -> 10", "`zero` -> `zero` x\nx -> x `zero`"], ids=["one-char", "tokens"]
)
def test_decode_refuses_unknown_letter_codes(text):
    s = parse_substitution(text)
    for bad in ("\x02", "\x00\x01\x02\x00", chr(0x10FFFF)):
        with pytest.raises(InvariantError):
            s.decode(bad)
    assert s.decode("") == ("" if s._one_char_tokens else ())


@pytest.mark.parametrize(
    "text", ["0 -> 01\n1 -> 10", "`zero` -> `zero` x\nx -> x `zero`"], ids=["one-char", "tokens"]
)
def test_encode_and_index_refuse_unknown_letters(text):
    # encode reads an int token as an alphabet index
    s = parse_substitution(text)
    first, second = s.alphabet
    assert s.encode([first, 1, 0, second]) == "\x00\x01\x00\x01"
    assert [s.index(first), s.index(second)] == [0, 1]
    for bad in ("q", 2, -1, "zero x"):
        with pytest.raises(InvariantError):
            s.encode([first, bad])
    for bad in ("q", "zero x"):
        with pytest.raises(InvariantError):
            s.index(bad)


def test_index_and_image_take_alphabet_tokens_only():
    # an int is an alphabet index to encode, never a letter to index or image
    s = parse_substitution("a -> ab\nb -> ba")
    assert (s.index("b"), s.image("b")) == (1, "ba")
    for bad in (0, 1, True):
        with pytest.raises(InvariantError):
            s.index(bad)
        with pytest.raises(InvariantError):
            s.image(bad)


@st.composite
def alphabets_and_words(draw):
    """An alphabet of one-character or longer tokens and a word over it in
    public form (a string for one-character tokens, a tuple otherwise)."""
    max_size = draw(st.sampled_from([1, 4]))
    alphabet = tuple(
        draw(st.lists(st.text(min_size=1, max_size=max_size), min_size=1, max_size=5, unique=True))
    )
    word = draw(st.lists(st.sampled_from(alphabet), max_size=20))
    return alphabet, "".join(word) if all(len(t) == 1 for t in alphabet) else tuple(word)


@settings(max_examples=100, deadline=None)
@given(alphabets_and_words())
def test_decode_inverts_encode(case):
    alphabet, word = case
    s = Substitution(alphabet, tuple(map(chr, range(len(alphabet)))))
    assert s.decode(s.encode(word)) == word


@st.composite
def small_substitutions(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    p = draw(st.integers(min_value=2, max_value=3))
    alphabet = tuple("abc"[:n])
    rules = {
        tok: "".join(
            draw(st.sampled_from(alphabet)) for _ in range(p)
        )
        for tok in alphabet
    }
    return Substitution.from_rules(rules, alphabet)


@settings(max_examples=30, deadline=None)
@given(small_substitutions(), st.integers(min_value=0, max_value=4))
def test_pair_projections_commute_with_iteration(s, m):
    ps = pair_substitution(s)
    n = s.size
    for i in range(n):
        for j in range(n):
            pw = iterate_chr(ps, chr(i * n + j), m)
            left = "".join(chr(ord(ch) // n) for ch in pw)
            right = "".join(chr(ord(ch) % n) for ch in pw)
            assert left == iterate_chr(s, chr(i), m)
            assert right == iterate_chr(s, chr(j), m)


@settings(max_examples=25, deadline=None)
@given(small_substitutions())
def test_language_monotone_and_extendable(s):
    if not is_primitive(s):
        return
    for n in (1, 2, 3):
        smaller = language_chr(s, n)
        bigger = language_chr(s, n + 1)
        assert len(bigger) >= len(smaller)
        prefixes = {w[:-1] for w in bigger}
        assert smaller <= prefixes


@settings(max_examples=25, deadline=None)
@given(small_substitutions(), st.integers(min_value=1, max_value=4))
def test_incidence_matrix_powers(s, m):
    n = s.size
    base = incidence_matrix(s)

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(m):
        power = matmul(base, power)
    iterated = Substitution(
        s.alphabet, tuple(iterate_chr(s, chr(i), m) for i in range(n))
    )
    assert incidence_matrix(iterated) == power


@settings(max_examples=25, deadline=None)
@given(small_substitutions(), st.integers(min_value=2, max_value=3))
def test_primitivity_invariant_under_powers(s, m):
    powered = Substitution(
        s.alphabet, tuple(iterate_chr(s, chr(i), m) for i in range(s.size))
    )
    assert is_primitive(s) == is_primitive(powered)
