"""Eventually periodic base-p digit sequences: elements of the p-odometer
that this package can represent exactly.

Digits are least-significant first, so a sequence ``(d_0, d_1, ...)``
stands for ``sum d_i p^i``.  Values are kept in canonical form: the
period is primitive (no shorter root) and the preperiod is as short as
possible, which makes structural equality coincide with equality in the
odometer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError


def _primitive_root(seq):
    n = len(seq)
    for d in range(1, n + 1):
        if n % d == 0 and seq == seq[:d] * (n // d):
            return seq[:d]
    return seq


def _canonical(preperiod, period):
    period = _primitive_root(tuple(period))
    preperiod = list(preperiod)
    while preperiod and preperiod[-1] == period[-1]:
        preperiod.pop()
        period = (period[-1],) + period[:-1]
    return tuple(preperiod), _primitive_root(period)


@dataclass(frozen=True)
class OdometerDigits:
    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise InvariantError("odometer base must be >= 2")
        if not self.period:
            raise InvariantError("period must be nonempty")
        for d in self.preperiod + self.period:
            if not 0 <= d < self.base:
                raise InvariantError(f"digit {d} out of range for base {self.base}")
        pre, per = _canonical(self.preperiod, self.period)
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def from_int(cls, value, base):
        """Digits of an integer (negative integers end in base-1 digits)."""
        if value >= 0:
            digits = []
            while value:
                digits.append(value % base)
                value //= base
            return cls(base, tuple(digits), (0,))
        # -q  <->  complement representation ending in (base-1)*
        q = -value - 1
        digits = []
        while q:
            digits.append(base - 1 - (q % base))
            q //= base
        return cls(base, tuple(digits), (base - 1,))

    def digit(self, i):
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def digits(self, count):
        return [self.digit(i) for i in range(count)]

    def successor(self):
        """Addition of one, carrying to the right: the first digit below
        p-1 goes up by one, the digits before it drop to 0, and the rest of
        the first pass stays before the same period (the constructor puts
        that form in canonical form).  If every digit is p-1, this is -1
        and its successor is 0."""
        p = self.base
        first_pass = self.digits(len(self.preperiod) + len(self.period))
        for i, d in enumerate(first_pass):
            if d != p - 1:
                pre = (0,) * i + (d + 1,) + tuple(first_pass[i + 1 :])
                return OdometerDigits(p, pre, self.period)
        return OdometerDigits(p, (), (0,))
