"""Every refusal below names its domain: the exact exception class and
message text, raised in-process (the CLI tests reach some of them only
through a subprocess exit code)."""

import pytest

from substchaos import (
    OdometerDigits,
    Substitution,
    coincidence_class,
    decide_infinite,
    enumerate_fiber,
    fiber_bound,
    iterate,
    pair_substitution,
    parse_substitution,
    point_from_literal,
    stream_from_fixed_point,
    tower_substitution,
)
from substchaos.errors import BudgetExceededError, InvariantError, ParseError, PreconditionError

from conftest import MORSE, cyclic_document

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
    "coincidence_variable_length": (
        lambda: coincidence_class(parse_substitution(VARIABLE_LENGTH)),
        PreconditionError, "coincidence structure needs constant length",
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
    "json_long_integer": (
        lambda: parse_substitution('{"rules": {"a": "a"}, "x": %s}' % LONG_INTEGER),
        ParseError, "line 1, column 1: invalid JSON: an integer has more than 4300 digits",
    ),
    "pair_substitution_budget": (
        lambda: pair_substitution(cyclic()),
        BudgetExceededError, PAIR_BUDGET,
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
