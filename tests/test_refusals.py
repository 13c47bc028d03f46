"""Every refusal below names its domain: the exact exception class and
message text, raised in-process (the CLI tests reach some of them only
through a subprocess exit code)."""

import pytest

from substchaos import (
    OdometerDigits,
    Substitution,
    analyze,
    cli,
    coincidence_class,
    decide_infinite,
    enumerate_fiber,
    fiber_bound,
    in_language,
    iterate,
    language,
    pair_substitution,
    parse_substitution,
    point_from_literal,
    reduction,
    sorted_language,
    stream_from_fixed_point,
    substitution,
    tower_substitution,
)
from substchaos.errors import (
    BudgetExceededError,
    InvariantError,
    ParseError,
    PreconditionError,
    SearchBudgetError,
)
from substchaos.reduction import is_simplifiable
from substchaos.substitution import language_chr

from conftest import MORSE, RANK_TWO, cyclic_document

NON_PRIMITIVE = "0 -> 01\n1 -> 11"
VARIABLE_LENGTH = "0 -> 01\n1 -> 0"


def morse():
    return parse_substitution(MORSE)


def morse_point():
    return stream_from_fixed_point(morse(), "1", "0")


def stream_literal(**fields):
    return point_from_literal(morse(), {"kind": "stream", **fields})


def cyclic():
    """1,100 letters of length 16: 19,360,000 letter-pair positions."""
    return parse_substitution(cyclic_document(1100, 16))


def wide_cyclic():
    """1,101 letters of length 2: 2,424,402 letter-pair positions, within
    the budget, but 1,212,201 letter pairs, past the 1,114,112 character
    codes of the pair substitution."""
    return parse_substitution(cyclic_document(1101, 2))


LONG_INTEGER = "9" * 5000
PAIR_BUDGET = "19360000 letter-pair positions exceed the word budget 16777216"


REFUSALS = {
    "pi_digits": (
        lambda: morse_point().pi_digits(-1),
        PreconditionError, "digit count must be >= 0",
    ),
    "expand": (
        lambda: morse_point().expand(-1),
        PreconditionError, "radius must be >= 0",
    ),
    "shift_by": (
        lambda: morse_point().shift_by(-1),
        PreconditionError, "shift count must be >= 0",
    ),
    "iterate": (
        lambda: iterate(morse(), "0", -1),
        PreconditionError, "iteration count must be >= 0",
    ),
    "fiber_base": (
        lambda: enumerate_fiber(morse(), OdometerDigits(3, (), (0,))),
        PreconditionError, "digit base does not match the substitution length",
    ),
    "fiber_bound_non_primitive": (
        lambda: fiber_bound(parse_substitution(NON_PRIMITIVE)),
        PreconditionError, "fiber bound requires a primitive substitution",
    ),
    "fiber_bound_variable_length": (
        lambda: fiber_bound(parse_substitution(VARIABLE_LENGTH)),
        PreconditionError, "fiber bound requires constant length",
    ),
    "odometer_base": (
        lambda: OdometerDigits(1, (), (0,)),
        InvariantError, "odometer base must be >= 2",
    ),
    "empty_alphabet": (
        lambda: Substitution((), ()),
        InvariantError, "alphabet must contain at least one letter",
    ),
    "missing_image": (
        lambda: Substitution(("a",), ()),
        InvariantError, "one image per letter required",
    ),
    "from_rules_mismatch": (
        lambda: Substitution.from_rules({"a": "a"}, ("a", "b")),
        InvariantError, "rules/alphabet mismatch (missing {'b'}, extra set())",
    ),
    "from_rules_mismatch_sorted": (
        lambda: Substitution.from_rules({"a": "a", "z": "z", "y": "y"}, ("a", "c", "b")),
        InvariantError, "rules/alphabet mismatch (missing {'b', 'c'}, extra {'y', 'z'})",
    ),
    "coincidence_variable_length": (
        lambda: coincidence_class(parse_substitution(VARIABLE_LENGTH)),
        PreconditionError, "coincidence structure needs constant length",
    ),
    "in_language_empty_word_non_primitive": (
        lambda: in_language(parse_substitution("0 -> 00\n1 -> 11"), ""),
        PreconditionError, "language generation requires a primitive substitution",
    ),
    "decide_infinite_non_primitive": (
        lambda: decide_infinite(parse_substitution(NON_PRIMITIVE)),
        PreconditionError, "finiteness decision requires a primitive substitution",
    ),
    "tower_level": (
        lambda: tower_substitution(0),
        PreconditionError, "tower levels start at 1",
    ),
    "no_rules": (
        lambda: parse_substitution("# nothing\n"),
        ParseError, "line 1, column 1: no rules found",
    ),
    "empty_image": (
        lambda: parse_substitution("a -> ab\n  b   ->  # none\n"),
        ParseError, "line 2, column 7: empty image for letter 'b'",
    ),
    "empty_backtick": (
        lambda: parse_substitution("0 -> 0``"),
        ParseError, "line 1, column 7: empty backtick token",
    ),
    "json_without_rules": (
        lambda: parse_substitution('{"alphabet": ["a"]}'),
        ParseError, "line 1, column 1: JSON document must contain a 'rules' object",
    ),
    "json_rule_not_a_word": (
        lambda: parse_substitution('{"rules": {"a": 5}}'),
        ParseError,
        "line 1, column 1: 'rules' must map each letter to a string or a list of letters",
    ),
    "json_duplicate_key": (
        lambda: parse_substitution('{"rules": {"a": "ab", "a": "ba", "b": "ba"}}'),
        ParseError, "line 1, column 1: invalid JSON: duplicate key 'a'",
    ),
    "json_alphabet_not_a_word": (
        lambda: parse_substitution('{"rules": {"a": "a"}, "alphabet": 5}'),
        ParseError, "line 1, column 1: 'alphabet' must be a list of letters",
    ),
    "json_alphabet_string": (
        lambda: parse_substitution('{"rules": {"a": "ab", "b": "ba"}, "alphabet": "ab"}'),
        ParseError, "line 1, column 1: 'alphabet' must be a list of letters",
    ),
    "json_alphabet_empty_string": (
        lambda: parse_substitution('{"rules": {"a": "a"}, "alphabet": ""}'),
        ParseError, "line 1, column 1: 'alphabet' must be a list of letters",
    ),
    "json_alphabet_false": (
        lambda: parse_substitution('{"rules": {"a": "a"}, "alphabet": false}'),
        ParseError, "line 1, column 1: 'alphabet' must be a list of letters",
    ),
    "stream_without_period": (
        stream_literal,
        PreconditionError, "stream point literal lacks period",
    ),
    "stream_unknown_seed": (
        lambda: stream_literal(period=[["", "0", "1"]], left_seed="x"),
        PreconditionError, "expected a single alphabet letter, got 'x'",
    ),
    "stream_levels_not_a_list": (
        lambda: stream_literal(period="001"),
        PreconditionError, "stream levels must be a list of [prefix, center, suffix] triples",
    ),
    "point_literal_malformed": (
        lambda: cli._load_point(morse(), "{broken"),
        ParseError, "invalid point literal: Expecting property name enclosed in double quotes",
    ),
    "point_literal_long_integer": (
        lambda: cli._load_point(morse(), '{"kind": "fixed_point", "left": %s}' % LONG_INTEGER),
        ParseError, "invalid point literal: an integer has more than 4300 digits",
    ),
    "point_literal_duplicate_key": (
        lambda: cli._load_point(
            morse(), '{"kind": "stream", "kind": "fixed_point", "left": "1", "right": "0"}'
        ),
        ParseError, "invalid point literal: duplicate key 'kind'",
    ),
    "point_kind_none": (
        lambda: point_from_literal(morse(), {"kind": None}),
        PreconditionError, "unknown point literal kind None",
    ),
    "point_kind_number": (
        lambda: point_from_literal(morse(), {"kind": 5}),
        PreconditionError, "unknown point literal kind 5",
    ),
    "point_kind_unknown_string": (
        lambda: point_from_literal(morse(), {"kind": "fixed"}),
        PreconditionError, "unknown point literal kind 'fixed'",
    ),
    "point_kind_list": (
        lambda: point_from_literal(morse(), {"kind": ["fixed_point"]}),
        PreconditionError, "unknown point literal kind ['fixed_point']",
    ),
    "point_kind_object": (
        lambda: point_from_literal(morse(), {"kind": {"stream": 1}, "period": []}),
        PreconditionError, "unknown point literal kind {'stream': 1}",
    ),
    "unknown_letter_line": (
        lambda: parse_substitution("a -> ab\n\n# c\nb -> bz\n"),
        ParseError, "line 4, column 1: image of 'b' uses unknown letter 'z'",
    ),
    "json_unknown_letter": (
        lambda: parse_substitution('{"rules": {"a": "a", "b": "q"}}'),
        ParseError, "line 1, column 1: image of 'b' uses unknown letter 'q'",
    ),
    "json_long_integer": (
        lambda: parse_substitution('{"rules": {"a": "a"}, "x": %s}' % LONG_INTEGER),
        ParseError, "line 1, column 1: invalid JSON: an integer has more than 4300 digits",
    ),
    "language_budget": (
        # 4 two-letter words, each covered at power 11 (2^11 >= 2048):
        # 4 * 2^11 * 2049 symbols, 8,192 past the word budget
        lambda: language(morse(), 2049),
        BudgetExceededError,
        "the length-2049 listing would slice 16785408 symbols, more than the word budget 16777216",
    ),
    "pair_substitution_budget": (
        lambda: pair_substitution(cyclic()),
        BudgetExceededError, PAIR_BUDGET,
    ),
    "pair_substitution_letters": (
        lambda: pair_substitution(wide_cyclic()),
        BudgetExceededError, "1212201 letter pairs exceed the character codes",
    ),
    "analyze_brute_bound_letters": (
        lambda: analyze(wide_cyclic(), brute_bound=4),
        BudgetExceededError, "1212201 letter pairs exceed the character codes",
    ),
    "pair_layer_budget": (
        lambda: coincidence_class(cyclic()),
        BudgetExceededError, PAIR_BUDGET,
    ),
    "stream_two_part_triple": (
        lambda: stream_literal(period=[["0", "1"]]),
        PreconditionError, "expected a [prefix, center, suffix] triple of words, got ['0', '1']",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_names_its_domain(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# Every budget check of the package, at a lowered limit: (the module
# that holds the limit, its name, the amount the call charges, the call,
# the error class and the message at a limit one below that amount).  A
# limit equal to the amount answers; one less refuses.
BOUNDARIES = {
    # three images of one morse letter charge 2, 4 and 8 letters
    "iterate": (
        substitution, "DEFAULT_WORD_BUDGET", 8, lambda: iterate(morse(), "0", 3),
        BudgetExceededError, "iteration would exceed the word budget (8 > 7)",
    ),
    # 4 two-letter words covered by images of 4 letters, times the length
    "listing": (
        substitution, "DEFAULT_WORD_BUDGET", 80, lambda: language(morse(), 5),
        BudgetExceededError,
        "the length-5 listing would slice 80 symbols, more than the word budget 79",
    ),
    "listing_one_letter": (
        substitution, "DEFAULT_WORD_BUDGET", 6, lambda: language(parse_substitution("a -> aa"), 6),
        BudgetExceededError,
        "the length-6 listing would slice 6 symbols, more than the word budget 5",
    ),
    "pair_positions": (
        substitution, "DEFAULT_WORD_BUDGET", 8, lambda: pair_substitution(morse()),
        BudgetExceededError, "8 letter-pair positions exceed the word budget 7",
    ),
    # morse has rank 1 of 2: 4 image letters times one kernel vector
    "word_table": (
        substitution, "DEFAULT_WORD_BUDGET", 4, lambda: is_simplifiable(morse()),
        BudgetExceededError,
        "the simplification search would hold 4 kernel sums, more than the word budget 3",
    ),
    "expand": (
        substitution, "DEFAULT_WORD_BUDGET", 7, lambda: morse_point().expand(3),
        BudgetExceededError, "expansion exceeds the word budget",
    ),
    "search_candidates": (
        reduction, "SIMPLIFIABILITY_BUDGET", 13,
        lambda: is_simplifiable(parse_substitution(RANK_TWO)),
        SearchBudgetError, "simplifiability search exceeded its candidate budget",
    ),
}


@pytest.mark.parametrize("case", sorted(BOUNDARIES))
def test_budget_boundary(case, monkeypatch):
    module, name, amount, call, error, message = BOUNDARIES[case]
    # no listing or search outcome of an earlier test, or of the other
    # limit, may answer from a cache: both assume the package's budgets
    language_chr.cache_clear()
    monkeypatch.setattr(module, name, amount - 1)
    substitution._tables.cache_clear()
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    monkeypatch.setattr(module, name, amount)
    substitution._tables.cache_clear()
    call()


def test_listing_is_charged_on_every_call(monkeypatch):
    # a listing past L_2 is built and charged on every call, never read
    # back from a cache: one answered at the package budget is refused
    # once the budget is lowered, with the listing cache left as it is
    assert len(sorted_language(morse(), 5)) == 12
    monkeypatch.setattr(substitution, "DEFAULT_WORD_BUDGET", 79)
    with pytest.raises(BudgetExceededError) as info:
        sorted_language(morse(), 5)
    assert type(info.value) is BudgetExceededError
    assert str(info.value) == (
        "the length-5 listing would slice 80 symbols, more than the word budget 79"
    )
