"""Desubstitution streams: construction, expansion, the shift carry, and
fiber enumeration."""

import random
import time

import pytest

from substchaos import (
    OdometerDigits,
    RepresentedPoint,
    Substitution,
    enumerate_fiber,
    fiber_bound,
    parse_substitution,
    point_from_literal,
    stream_from_entries,
    stream_from_fixed_point,
)
from substchaos import streams
from substchaos.errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
    StreamChainError,
)
from substchaos.simulate import empirical_class
from substchaos.streams import _past_right_end, _step
from substchaos.substitution import first_letter_map, iterate_slice, last_letter_map

from conftest import (
    CORPUS_SEED,
    fixed_points,
    random_substitutions,
    right_end_jump,
    stepwise_orbit,
    stepwise_window,
    successor_of_digit_list,
)


def test_fixed_point_morse(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "1", "0")
    assert x.window(4) == "100101101"
    assert x.pi_digits(8) == [0] * 8
    lit = x.to_literal()
    assert lit["period"] == [["", "0", "1"]]
    assert lit["left_seed"] == "1"


def test_fixed_point_other_morse_seed(fixtures):
    y = stream_from_fixed_point(fixtures["morse"], "0", "1")
    assert y.window(4)[4:] == "10010"


def test_fixed_point_seed_with_longer_cycle(fixtures):
    # last letter of one image only returns to itself at the second power
    x = stream_from_fixed_point(fixtures["morse"], "1", "1")
    assert x.window(4) == "100110010"


def test_point_is_one_frozen_canonical_value(fixtures):
    morse = fixtures["morse"]
    x = stream_from_fixed_point(morse, "1", "0")
    # the constructor takes the fields in this order, and equality and the
    # hash are over them
    fields = ["subst", "preperiod", "period", "left_seed", "right_seed"]
    assert list(RepresentedPoint.__slots__) == fields
    values = tuple(getattr(x, name) for name in fields)
    twin = RepresentedPoint(*values)
    assert twin == x and hash(twin) == hash(x) == hash(values) and twin is not x
    assert x != values
    assert not hasattr(x, "__dict__")
    for name in fields + ["other"]:
        with pytest.raises(AttributeError):
            setattr(x, name, "0")
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == values
    assert repr(x) == "RepresentedPoint(pre=[], per=[['', '0', '1']], seeds=(1, None))"
    # a doubled period, or a period level copied into the preperiod with
    # the left seed one step back along the last-letter map (0 -> 1), is
    # stored in the canonical form of x
    lit = x.to_literal()
    for variant in (
        dict(lit, period=lit["period"] * 2),
        dict(lit, preperiod=lit["period"], left_seed="0"),
    ):
        y = point_from_literal(morse, variant)
        assert (y, hash(y), y.to_literal()) == (x, hash(x), lit)
        assert y.expand(40) == x.expand(40)


def test_constructor_canonicalises_in_one_pass(point_corpus, monkeypatch):
    # the proof in the RepresentedPoint docstring: the checks on the given
    # form hold for the canonical one, so each construction runs __init__
    # once.  Variants: the period doubled, one period level moved into the
    # preperiod, and a whole period copied into it, with the seeds stepped
    # back the levels their anchor moved up.
    calls = []
    init = RepresentedPoint.__init__

    def counted(self, *args):
        calls.append(1)
        init(self, *args)

    monkeypatch.setattr(RepresentedPoint, "__init__", counted)
    built = 0
    for points in point_corpus.values():
        for x in points:
            s, pre, per = x.subst, x.preperiod, x.period

            def back(levels):
                left, right = x.left_seed, x.right_seed
                if left is not None:
                    left = _step(last_letter_map(s), left, -levels)
                if right is not None:
                    right = _step(first_letter_map(s), right, -levels)
                return left, right

            for variant in (
                (pre, per * 2, *back(0)),
                (pre + per[:1], per[1:] + per[:1], *back(1)),
                (pre + per, per, *back(len(per))),
            ):
                calls.clear()
                y = RepresentedPoint(s, *variant)
                assert len(calls) == 1
                assert [getattr(y, f) for f in RepresentedPoint.__slots__] == [
                    getattr(x, f) for f in RepresentedPoint.__slots__
                ], variant
                built += 1
    assert built > 200


def test_fixed_point_rejections(fixtures):
    with pytest.raises(PreconditionError):
        stream_from_fixed_point(fixtures["ly_two"], "1", "1")  # "11" not a word
    # a letter with no fixing power: transient on the last-letter map
    s = parse_substitution("0 -> 001\n1 -> 120\n2 -> 221")
    with pytest.raises(PreconditionError) as err:
        stream_from_fixed_point(s, "2", "0")
    assert "fixes the last letter" in str(err.value)


def test_stream_entry_literal_roundtrip(fixtures):
    lit = {
        "kind": "stream",
        "preperiod": [],
        "period": [["", "0", "10"]],
        "left_seed": "0",
        "right_seed": None,
    }
    x = point_from_literal(fixtures["ly_two"], lit)
    assert x.to_literal() == lit
    fp = point_from_literal(fixtures["morse"], {"kind": "fixed_point", "left": "1", "right": "0"})
    assert fp.window(4) == "100101101"


def test_stream_chain_violation_reports_level(fixtures):
    with pytest.raises(StreamChainError) as err:
        stream_from_entries(fixtures["morse"], [], [["", "0", "0"]])
    assert err.value.level == 0


def test_seed_requirements(fixtures):
    with pytest.raises(InvariantError):
        stream_from_entries(fixtures["morse"], [], [["", "0", "1"]])  # missing seed
    with pytest.raises(InvariantError):
        stream_from_entries(
            fixtures["morse"], [], [["", "0", "1"]], left_seed="1", right_seed="0"
        )


def test_expand_consistency_nested(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "1", "0")
    big = x.expand(200)
    for radius in (0, 1, 5, 50, 199):
        assert x.expand(radius) == big[200 - radius : 200 + radius + 1]


def test_expand_center_only(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "1", "0")
    assert x.window(0) == "0"


EXPANSION_RADII = (0, 1, 2, 5, 17, 64, 300, 2203)


@pytest.fixture(scope="module")
def expansion_points(fixtures, point_corpus):
    """Points over the six fixtures and 50 seeded random one-to-one
    infinite inputs (|A| <= 4, p <= 4): the fixed points, the fibers of
    the digits (0), (p-1), (1) and (1|0), three fibers with random
    preperiods of up to 14 levels, the point corpus, and each of these
    after 1 to 30 shifts (deterministic seed)."""
    rng = random.Random(CORPUS_SEED + 5)
    points = [pt for pts in point_corpus.values() for pt in pts]
    for s in [*fixtures.values(), *random_substitutions(50, seed=CORPUS_SEED + 5)]:
        p = s.constant_length
        points.extend(fixed_points(s))
        digit_sets = [
            OdometerDigits(p, (), (0,)),
            OdometerDigits(p, (), (p - 1,)),
            OdometerDigits(p, (), (1,)),
            OdometerDigits(p, (1,), (0,)),
        ]
        for _ in range(3):
            pre = tuple(rng.randrange(p) for _ in range(rng.randint(0, 14)))
            per = tuple(rng.randrange(p) for _ in range(rng.randint(1, 2)))
            digit_sets.append(OdometerDigits(p, pre, per))
        for digits in digit_sets:
            points.extend(enumerate_fiber(s, digits))
    points.extend([pt.shift_by(rng.randint(1, 30)) for pt in points])
    return points


# The reference expands every preperiod level of a seeded point in full;
# its budget is cut so that the deepest of them are refused in seconds.
REFERENCE_BUDGET = 1 << 18


def test_expand_matches_the_stepwise_reference(expansion_points):
    top = EXPANSION_RADII[-1]
    checked = 0
    for point in expansion_points:
        try:
            big = stepwise_window(point, top, REFERENCE_BUDGET)
        except BudgetExceededError:
            big = None
        for radius in EXPANSION_RADII:
            if big is not None:
                expected = big[top - radius : top + radius + 1]
            else:
                try:
                    expected = stepwise_window(point, radius, REFERENCE_BUDGET)
                except BudgetExceededError:
                    continue
            assert point.expand(radius) == expected, (point, radius)
            checked += 1
    assert checked > 0.9 * len(expansion_points) * len(EXPANSION_RADII)


def test_expand_produces_letters_linear_in_the_window(expansion_points, monkeypatch):
    produced = 0
    apply = Substitution.apply

    def counting_apply(self, chrword):
        nonlocal produced
        image = apply(self, chrword)
        produced += len(image)
        return image

    monkeypatch.setattr(Substitution, "apply", counting_apply)
    for point in expansion_points:
        for radius in (1000, 2203):
            produced = 0
            point.expand(radius)
            assert produced <= 4 * (2 * radius + 1), (point, radius, produced)


def least_covering_level(point, radius):
    """The least level K >= k (the preperiod length) whose word covers the
    window of ``radius``, by the formula of ``streams._expand``: the block
    at level K covers [-D_K, p^K - D_K), with D_K the value of the first K
    digits, and a left or right seed adds p^K letters on its side."""
    p = point.subst.constant_length
    level = len(point.preperiod)
    while True:
        size = p**level
        value = sum(d * p**i for i, d in enumerate(point.pi_digits(level)))
        first = -value - (size if point.left_seed is not None else 0)
        end = size - value + (size if point.right_seed is not None else 0)
        if first <= -radius and radius < end:
            return level
        level += 1


def test_expand_starts_at_the_least_covering_level(point_corpus, monkeypatch):
    # a window read from a higher level holds the same letters at p times
    # the work, so the level passed to iterate_slice is checked itself
    levels = []

    def recording(subst, chrword, count, start, stop):
        levels.append(count)
        return iterate_slice(subst, chrword, count, start, stop)

    monkeypatch.setattr(streams, "iterate_slice", recording)
    for points in point_corpus.values():
        for point in points:
            for radius in range(51):
                levels.clear()
                point.expand(radius)
                assert levels == [least_covering_level(point, radius)], (point, radius)


def test_expand_deep_preperiod_without_budget_error(fixtures):
    # digits 1^30 0^inf: position 0 of each point is n = 2^30 - 1 of the
    # Thue-Morse word t(n) (binary digit sum parity) or of its complement
    points = enumerate_fiber(fixtures["morse"], OdometerDigits(2, (1,) * 30, (0,)))
    assert len(points) == 4
    t = "".join(str(bin(n).count("1") % 2) for n in range(2**30 - 6, 2**30 + 5))
    complement = t.translate(str.maketrans("01", "10"))
    for point in points:
        assert point.window(5) in (t, complement)


def test_pi_digits_examples(fixtures):
    morse = fixtures["morse"]
    x = stream_from_fixed_point(morse, "1", "0")
    assert x.shift().pi_digits(6) == [1, 0, 0, 0, 0, 0]
    minus_one = enumerate_fiber(morse, OdometerDigits(2, (), (1,)))[0]
    assert minus_one.pi_digits(6) == [1] * 6


def test_shift_matches_window_slide(point_corpus):
    for name, points in point_corpus.items():
        for x in points:
            base = x.expand(400)
            pt = x
            for n in range(1, 60):
                pt = pt.shift()
                assert pt.expand(32) == base[400 - 32 + n : 400 + 33 + n], (name, n)


def odometer_successor(d):
    """The exact +1 of an odometer value: the carry runs through the first
    pass (preperiod and one period) and the same period follows it; if
    every digit is p-1, the value is -1 and its successor is 0."""
    first_pass = list(d.preperiod + d.period)
    if all(digit == d.base - 1 for digit in first_pass):
        return OdometerDigits(d.base, (), (0,))
    return OdometerDigits(d.base, tuple(successor_of_digit_list(first_pass, d.base)), d.period)


def test_shift_digit_successor_law(point_corpus):
    # The shift acts on the odometer factor as +1 with carry, exactly.
    for points in point_corpus.values():
        for x in points:
            pt = x
            for _ in range(40):
                digits = pt.pi_digits(32)
                value = pt.odometer_digits()
                pt = pt.shift()
                assert pt.pi_digits(32) == successor_of_digit_list(digits, pt.subst.constant_length)
                assert pt.odometer_digits() == odometer_successor(value)


def test_shift_across_carry(fixtures):
    morse = fixtures["morse"]
    z = enumerate_fiber(morse, OdometerDigits(2, (), (1,)))[0]
    assert z.pi_digits(4) == [1, 1, 1, 1]
    succ = z.shift()
    assert succ.pi_digits(4) == [0, 0, 0, 0]
    assert succ.expand(64) == z.expand(65)[2:]


def test_fiber_bound_values(fixtures):
    assert fiber_bound(fixtures["morse"]) == 6
    assert fiber_bound(fixtures["toeplitz"]) == 5


def test_fiber_bound_preconditions():
    with pytest.raises(PreconditionError):
        fiber_bound(parse_substitution("0 -> 010\n1 -> 101"))


def test_fiber_zero_of_morse(fixtures):
    pts = enumerate_fiber(fixtures["morse"], OdometerDigits(2, (), (0,)))
    assert len(pts) == 4
    assert all(p.left_seed is not None for p in pts)
    windows = {p.window(2) for p in pts}
    assert len(windows) == 4
    # each center has two left seeds; equal level data list them in
    # alphabet order
    literals = [p.to_literal() for p in pts]
    assert [(lit["period"], lit["left_seed"]) for lit in literals] == [
        ([["", "0", "1"]], "0"),
        ([["", "0", "1"]], "1"),
        ([["", "1", "0"]], "0"),
        ([["", "1", "0"]], "1"),
    ]


def test_fiber_minus_one_has_right_seeds(fixtures):
    pts = enumerate_fiber(fixtures["morse"], OdometerDigits(2, (), (1,)))
    assert pts
    assert all(p.right_seed is not None for p in pts)
    literals = [p.to_literal() for p in pts]
    assert [(lit["period"][0], lit["right_seed"]) for lit in literals] == [
        (["0", "1", ""], "0"),
        (["0", "1", ""], "1"),
        (["1", "0", ""], "0"),
        (["1", "0", ""], "1"),
    ]


def sample_digit_sequences(p, count=20):
    from itertools import product

    values = sorted({0, 1, p - 1})
    sequences = []
    for pre in [(), (0,), (1,), (p - 1,)]:
        for length in (1, 2, 3):
            for per in product(values, repeat=length):
                sequences.append(OdometerDigits(p, pre, per))
    return list(dict.fromkeys(sequences))[:count]


def test_fiber_within_bound_many_digit_sequences(fixtures):
    for s in fixtures.values():
        p = s.constant_length
        bound = fiber_bound(s)
        unique = sample_digit_sequences(p)
        assert len(unique) == 20
        for digits in unique:
            pts = enumerate_fiber(s, digits, radius=128)
            assert len(pts) <= bound, (s.rules(), digits)
            assert len(set(pts)) == len(pts), (s.rules(), digits)


def test_cross_fiber_pairs_stay_separated(fixtures):
    # digit sequences differing at a low index never develop deep
    # agreement: the agreement radius stays bounded at every sampled time
    from conftest import fixed_points

    for name in ("morse", "ly_two", "baacd"):
        x = fixed_points(fixtures[name])[0]
        y = x.shift()
        assert x.odometer_digits() != y.odometer_digits()
        report = empirical_class(x, y, 512, 64)
        assert report.proximality_count == 0, name


def test_fiber_separation_bound_error(fixtures):
    # points are told apart by their canonical streams, so radius zero
    # still returns both seed variants of each zero-fiber center
    pts = enumerate_fiber(fixtures["morse"], OdometerDigits(2, (), (0,)), radius=0)
    assert len(set(pts)) == len(pts) == 4
    for center in ("0", "1"):
        seeds = {p.left_seed for p in pts if p.window(0) == center}
        assert seeds == {chr(0), chr(1)}


def test_fiber_keeps_points_a_small_window_cannot_separate(fixtures):
    # the two right seeds first show at position 729, far outside the
    # default radius of 64
    digits = OdometerDigits(3, (0,) * 6, (2,))
    pts = enumerate_fiber(fixtures["ly_two"], digits)
    assert len(pts) == 2
    assert {p.right_seed for p in pts} == {chr(0), chr(1)}
    assert pts[0].expand(728) == pts[1].expand(728)
    assert pts[0].expand(729) != pts[1].expand(729)


def test_fiber_points_differ_on_windows(fixtures):
    # window oracle: distinct canonical streams in a fiber are distinct
    # points, seen at radius p^(k+L+1) for preperiod k and period L
    for s in fixtures.values():
        p = s.constant_length
        for digits in sample_digit_sequences(p):
            radius = p ** (len(digits.preperiod) + len(digits.period) + 1)
            pts = enumerate_fiber(s, digits)
            windows = {pt.expand(radius) for pt in pts}
            assert len(windows) == len(pts), (s.rules(), digits)


def test_jump_past_the_right_end_is_the_shift_loop(fixtures):
    # a point whose digits end in (p-1)^∞ moves R = p^k - D_k shifts, past
    # its finite right side, in one step
    rng = random.Random(9)
    for s in fixtures.values():
        p = s.constant_length
        for pre in ((), (0,), (0, 0, 1), tuple(rng.randrange(p) for _ in range(4))):
            for x in enumerate_fiber(s, OdometerDigits(p, pre, (p - 1,))):
                jump = right_end_jump(x)
                assert _past_right_end(x) == stepwise_orbit(x, jump)[-1]


def non_injective_fixed_points():
    """The fixed points of the non-injective inputs among 300 seeded
    primitive constant-length substitutions (|A| <= 4, p <= 4)."""
    inputs = random_substitutions(
        300, seed=CORPUS_SEED + 6, one_to_one=False, require_infinite=False
    )
    return [x for s in inputs if not s.is_injective() for x in fixed_points(s)]


def test_shift_by_is_the_stepwise_carry(point_corpus):
    points = [x for pts in point_corpus.values() for x in pts]
    extra = non_injective_fixed_points()
    assert len(extra) >= 40
    for x in points + extra:
        for n, expected in enumerate(stepwise_orbit(x, 63)):
            assert x.shift_by(n) == expected, (x, n)


def test_shift_by_slides_the_window(point_corpus):
    for points in point_corpus.values():
        for x in points:
            for n in (0, 1, 5, 64, 333, 1000, 4097):
                for r in (0, 16):
                    assert x.shift_by(n).expand(r) == x.expand(r + n)[2 * n : 2 * n + 2 * r + 1]


def test_shift_by_adds_counts(point_corpus):
    rng = random.Random(CORPUS_SEED + 7)
    counts = [0, 1, 2**64, 3**40, 10**30]
    for points in point_corpus.values():
        for x in points:
            for a, b in [(a, b) for a in counts for b in counts] + [
                (rng.randrange(10**30), rng.randrange(10**30)) for _ in range(10)
            ]:
                assert x.shift_by(a + b) == x.shift_by(a).shift_by(b), (x, a, b)


def test_shift_by_huge_counts_answers_fast(fixtures):
    morse = fixtures["morse"]
    points = [
        stream_from_fixed_point(morse, "1", "0"),
        enumerate_fiber(morse, OdometerDigits(2, (0, 1), (1,)))[0],
    ]
    for x in points:
        for n in (10**6, 10**100):
            start = time.perf_counter()
            y = x.shift_by(n)
            assert time.perf_counter() - start < 1.0, n
            # the shift is +n on the odometer: the first digits are those of
            # the old value plus n
            value = sum(d * 2**i for i, d in enumerate(x.pi_digits(400)))
            assert y.pi_digits(400) == [(value + n) >> i & 1 for i in range(400)]


def test_point_literal_unknown_kind(fixtures):
    with pytest.raises(PreconditionError):
        point_from_literal(fixtures["morse"], {"kind": "mystery"})
