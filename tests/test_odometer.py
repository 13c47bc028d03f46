"""Canonical eventually periodic digit sequences: the digit value of a
fiber.  The +1 map acts on points (``RepresentedPoint.shift``); its law is
checked in ``test_streams.py``."""

import pytest

from substchaos import OdometerDigits
from substchaos.errors import InvariantError


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
    assert (a.preperiod, a.period) == ((1,), (0,))


def test_digit_range_checked():
    with pytest.raises(InvariantError):
        OdometerDigits(2, (), (2,))
    with pytest.raises(InvariantError):
        OdometerDigits(2, (), ())
