"""Eventually periodic base-p digit sequences: elements of the p-odometer
that this package can represent exactly.

Digits are least-significant first, so a sequence ``(d_0, d_1, ...)``
stands for ``sum d_i p^i``.  Values are kept in canonical form: the
period is primitive (no shorter root) and the preperiod is as short as
possible, which makes structural equality coincide with equality in the
odometer.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvariantError


def _primitive_root(seq):
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return seq[:d]


def _canonical(preperiod, period):
    period = _primitive_root(tuple(period))
    preperiod = list(preperiod)
    while preperiod and preperiod[-1] == period[-1]:
        preperiod.pop()
        period = (period[-1],) + period[:-1]
    return tuple(preperiod), _primitive_root(period)


class OdometerDigits(namedtuple("OdometerDigits", "base preperiod period")):
    """A digit sequence in canonical form; the constructor checks the
    digits and canonicalises the preperiod and period."""

    __slots__ = ()

    def __new__(cls, base, preperiod, period):
        if base < 2:
            raise InvariantError("odometer base must be >= 2")
        if not period:
            raise InvariantError("period must be nonempty")
        for d in preperiod + period:
            if not 0 <= d < base:
                raise InvariantError(f"digit {d} out of range for base {base}")
        return super().__new__(cls, base, *_canonical(preperiod, period))
