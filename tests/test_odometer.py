"""Canonical eventually periodic digit sequences and the +1 map."""

import pytest

from substchaos import OdometerDigits
from substchaos.errors import InvariantError

from conftest import successor_of_digit_list


def test_canonical_form_minimal_period():
    d = OdometerDigits(2, (), (0, 1, 0, 1))
    assert d.period == (0, 1)


def test_canonical_form_absorbs_preperiod():
    d = OdometerDigits(3, (2, 1), (1,))
    assert d.preperiod == (2,)
    assert d.period == (1,)


def test_equality_through_canonicalization():
    a = OdometerDigits(2, (1, 0), (0,))
    b = OdometerDigits(2, (1,), (0, 0))
    assert a == b
    assert a.digits(6) == [1, 0, 0, 0, 0, 0]


def test_digit_range_checked():
    with pytest.raises(InvariantError):
        OdometerDigits(2, (), (2,))
    with pytest.raises(InvariantError):
        OdometerDigits(2, (), ())


def test_from_int():
    assert OdometerDigits.from_int(6, 2).digits(5) == [0, 1, 1, 0, 0]
    assert OdometerDigits.from_int(-1, 2) == OdometerDigits(2, (), (1,))
    assert OdometerDigits.from_int(-2, 3).digits(4) == [1, 2, 2, 2]


def test_successor_basic():
    zero = OdometerDigits(3, (), (0,))
    assert zero.successor() == OdometerDigits.from_int(1, 3)


def test_successor_carries():
    d = OdometerDigits(2, (1, 1), (0,))
    assert d.successor() == OdometerDigits.from_int(4, 2)


def test_successor_of_minus_one_is_zero():
    d = OdometerDigits(5, (), (4,))
    assert d.successor() == OdometerDigits(5, (), (0,))


def test_successor_into_period():
    d = OdometerDigits(2, (1,), (1, 0))
    succ = d.successor()
    assert succ.digits(8) == successor_of_digit_list(d.digits(8), 2)


def test_successor_agrees_with_integers():
    for base in (2, 3, 5):
        for n in range(-10, 40):
            assert OdometerDigits.from_int(n, base).successor() == OdometerDigits.from_int(
                n + 1, base
            )
