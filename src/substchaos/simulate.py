"""Finite-horizon orbit oracle: expands represented points to long
windows, tracks the agreement radius along forward iteration of the
shift, and reports proximality and separation evidence.

Everything here is evidence, never a decision: reports carry their
horizon and window so claims read "at horizon H".  The metric is
``2^(-agreement radius)`` with the radius capped at the report window.

The evidence and the CSV radii are read from one string of difference
flags (one byte per coordinate of the expanded windows) with byte-string
counts, searches and regular-expression runs, in time linear in the
window and without visiting the times one by one.  The flags themselves
are one XOR of the two windows read as latin-1 big integers, with every
nonzero byte mapped to 1 by ``bytes.translate``; only a window with a
letter code past 255, which latin-1 cannot hold, is compared symbol by
symbol.  The reports are the ones a per-step scan gives; the test
suite keeps that scan as its reference
(``tests/conftest.py:stepwise_empirical_class``).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat

from .errors import PreconditionError
from .substitution import DEFAULT_WORD_BUDGET

EVENT_CAP = 512

DEFAULT_WINDOW = 16

_DIFFERENCE = re.compile(b"\x01")
_AGREEMENT = re.compile(b"\x00+")
# bytes.translate table: 0 stays 0, every other byte becomes 1
_NONZERO = bytes(1) + b"\x01" * 255


def default_horizon(subst):
    """p^10 capped at one million iterations."""
    return min(subst.constant_length ** 10, 10**6)


@dataclass(frozen=True)
class EvidenceReport:
    horizon: int
    window: int
    proximality_events: tuple[int, ...]
    proximality_count: int
    separation_events: tuple[int, ...]
    separation_count: int
    last_separation: int | None
    max_last_difference: int | None
    min_distance: float
    max_distance: float

    def to_json(self):
        return dict(vars(self))


def _difference_flags(x, y, horizon, window, budget):
    """Expand both points to radius ``horizon + window`` and return one
    byte per coordinate: 1 where the windows differ, 0 where they agree.
    Time 0 sits at index ``horizon + window``."""
    if horizon < 0 or window < 1:
        raise PreconditionError("horizon must be >= 0 and window >= 1")
    radius = horizon + window
    left, right = x.expand(radius, budget), y.expand(radius, budget)
    try:
        left, right = left.encode("latin-1"), right.encode("latin-1")
    except UnicodeEncodeError:
        return bytes(map(operator.ne, left, right))
    # The windows as big integers: their XOR is nonzero exactly in the
    # bytes where they differ.  Each buffer is dropped once read, so the
    # peak is the two windows beside their encodings.
    left = int.from_bytes(left, "big")
    right = int.from_bytes(right, "big")
    left ^= right
    del right
    return left.to_bytes(2 * radius + 1, "big").translate(_NONZERO)


def empirical_class(x, y, horizon, window=DEFAULT_WINDOW, budget=DEFAULT_WORD_BUDGET):
    """Report the observed metric behavior of the pair at forward times
    0..horizon; makes no exact claim."""
    return _evidence(_difference_flags(x, y, horizon, window, budget), horizon, window)


def _evidence(flags, horizon, window):
    """The report of ``empirical_class`` read off the difference flags.

    The radius at time n is the distance from n to the nearest difference,
    capped at the window, so every field is read without visiting the
    times one by one: a separation is a 1 at a time, and time n is
    proximal (radius >= window) exactly when the ``2*window - 1`` flags
    centred on it are all 0."""
    mid = horizon + window
    end = mid + horizon + 1
    sep_count = flags.count(1, mid, end)
    seps = [m.start() - mid for m in islice(_DIFFERENCE.finditer(flags, mid, end), EVENT_CAP)]
    # Each zero run of 2*window - 1 or more flags among times
    # 1 - window .. horizon + window - 1 makes proximal every time whose
    # 2*window - 1 flags it holds.
    prox = []
    prox_count = 0
    zero_runs = re.compile(b"\x00{%d,}" % (2 * window - 1))
    for run in zero_runs.finditer(flags, mid - window + 1, end + window - 1):
        first = run.start() + window - 1 - mid
        last = run.end() - window - mid
        prox_count += last - first + 1
        prox.extend(range(first, min(last + 1, first + EVENT_CAP - len(prox))))
    # Smallest radius: 0 at a separation; otherwise the nearest difference
    # lies before time 0 or after the horizon and is nearest to that end.
    min_radius = 0
    if not sep_count:
        before = flags.rfind(1, 0, mid)
        after = flags.find(1, end)
        min_radius = min(
            window,
            mid - before if before >= 0 else window,
            after - end + 1 if after >= 0 else window,
        )
    # Largest radius: some time reaches radius k exactly when a zero run
    # of length 2k - 1 is centred in 0..horizon, which is monotone in k.
    max_radius, too_wide = 0, window + 1
    while too_wide - max_radius > 1:
        k = (max_radius + too_wide) // 2
        if flags.find(b"\x00" * (2 * k - 1), mid - k + 1, end + k - 1) >= 0:
            max_radius = k
        else:
            too_wide = k
    last_diff = flags.rfind(1)
    return EvidenceReport(
        horizon=horizon,
        window=window,
        proximality_events=tuple(prox),
        proximality_count=prox_count,
        separation_events=tuple(seps),
        separation_count=sep_count,
        last_separation=flags.rfind(1, mid, end) - mid if sep_count else None,
        max_last_difference=last_diff - mid if last_diff >= 0 else None,
        min_distance=2.0 ** (-max_radius),
        max_distance=2.0 ** (-min_radius),
    )


def _evidence_and_radii(x, y, horizon, window, budget):
    """``empirical_class`` of the pair and its ``(time, agreement
    radius)`` samples for CSV export, from one expansion and comparison of
    the two windows."""
    flags = _difference_flags(x, y, horizon, window, budget)
    return _evidence(flags, horizon, window), _radii(flags, horizon, window)


def _radii(flags, horizon, window):
    """The ``(time, agreement radius)`` samples for times 0..horizon,
    read off the zero runs of the difference flags from time ``-window``
    on: inside a run the radius rises by one from each end up to the
    window.  A difference just outside that stretch is more than the
    window away from every time, so the ends may be treated as
    differences."""
    stretch = flags[horizon:]
    radii = [0] * len(stretch)
    for run in _AGREEMENT.finditer(stretch):
        start, stop = run.span()
        size = stop - start
        up = min(window, (size + 1) // 2)
        down = min(window, size // 2)
        radii[start:stop] = chain(
            range(1, up + 1), repeat(window, size - up - down), range(down, 0, -1)
        )
    return list(enumerate(radii[window : window + horizon + 1]))
