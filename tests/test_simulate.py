"""Finite-horizon orbit evidence and its consistency with the exact
verdicts."""

import operator
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from substchaos import (
    PairClass,
    classify_pair,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    empirical_class,
    stream_from_entries,
    stream_from_fixed_point,
)
from substchaos.errors import PreconditionError
from substchaos.simulate import EVENT_CAP, _difference_flags
from substchaos.substitution import iterate_chr

from conftest import (
    agreement_radius,
    check_recurrent_return_times,
    count_occurrences,
    radius_samples,
    recurrence_check,
    stepwise_empirical_class,
    zip_pair_word,
)


def test_agreement_radius_identical_windows():
    w = "0101010101010"
    assert agreement_radius(w, w, 0, 4) == 4
    assert agreement_radius(w, w, 2, 4) == 4


def test_agreement_radius_center_mismatch():
    x = "000000000"
    y = "000010000"
    assert agreement_radius(x, y, 0, 3) == 0
    assert agreement_radius(x, y, 1, 3) == 1
    assert agreement_radius(x, y, 2, 2) == 2


def test_agreement_radius_window_coverage():
    with pytest.raises(PreconditionError):
        agreement_radius("000", "000", 5, 2)


def test_self_pair_always_at_cap(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "1", "0")
    report = empirical_class(x, x, 100, 16)
    assert report.proximality_count == 101
    assert report.separation_count == 0
    assert report.min_distance == 2.0**-16


def test_morse_asymptotic_tail_growth(fixtures):
    # equal right tails: differences sit at fixed negative coordinates, so
    # the radius grows without bound along the forward orbit
    x = stream_from_fixed_point(fixtures["morse"], "0", "0")
    y = stream_from_fixed_point(fixtures["morse"], "1", "0")
    samples = dict(radius_samples(x, y, 64, 16))
    assert samples[0] <= 1
    assert samples[40] == 16
    report = empirical_class(x, y, 2**10, 16)
    assert report.separation_count == 0
    assert report.max_last_difference == -1


def test_ly_pair_has_both_event_kinds(fixtures):
    cp = construct_ly_pair(fixtures["ly_two"])
    report = empirical_class(cp.x, cp.y, 3**10, 16)
    assert report.proximality_count >= 1
    assert report.separation_count >= 1


def test_distal_pair_has_no_proximality(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "0", "0")
    y = stream_from_fixed_point(fixtures["morse"], "0", "1")
    report = empirical_class(x, y, 2**10, 16)
    assert report.proximality_count == 0
    assert report.max_distance == 1.0


def test_radius_shift_compatibility(fixtures):
    x = stream_from_fixed_point(fixtures["morse"], "0", "0")
    y = stream_from_fixed_point(fixtures["morse"], "1", "1")
    W = 8
    xw = x.expand(2**8 + W)
    yw = y.expand(2**8 + W)
    sx, sy = x, y
    for n in range(2**8 + 1):
        direct = agreement_radius(xw, yw, n, W)
        shifted = agreement_radius(sx.expand(W), sy.expand(W), 0, W)
        assert direct == shifted, n
        sx, sy = sx.shift(), sy.shift()


def test_recurrence_positive(fixtures):
    # the exact return times of the construction, in place of the scan
    rp = construct_recurrent_ly_pair(fixtures["baacd"])
    check_recurrent_return_times(rp)


def test_recurrence_negative_and_word_absence(fixtures):
    baacd = fixtures["baacd"]
    x = stream_from_entries(baacd, [], [["b", "c", "aba"]])
    y = stream_from_entries(baacd, [], [["b", "d", "abd"]])
    assert classify_pair(x, y).kind is PairClass.LI_YORKE
    assert not recurrence_check(x, y, ("c", "d"), 4)
    ci, di = baacd.index("c"), baacd.index("d")
    for m in range(2, 7):
        big = zip_pair_word(
            baacd, iterate_chr(baacd, chr(ci), m), iterate_chr(baacd, chr(di), m)
        )
        for i in range(1, m):
            small = zip_pair_word(
                baacd, iterate_chr(baacd, chr(ci), i), iterate_chr(baacd, chr(di), i)
            )
            # only the image of the central column itself, never a second copy
            assert count_occurrences(big, small) == 1, (i, m)


def test_recurrence_diagonal_trivial(fixtures):
    x = stream_from_entries(fixtures["baacd"], [], [["b", "c", "aba"]])
    assert recurrence_check(x, x, ("c", "c"), 3)


def test_report_json_shape(fixtures):
    cp = construct_ly_pair(fixtures["ly_two"])
    doc = empirical_class(cp.x, cp.y, 100, 8).to_json()
    assert set(doc) == {
        "horizon",
        "window",
        "proximality_events",
        "proximality_count",
        "separation_events",
        "separation_count",
        "last_separation",
        "max_last_difference",
        "min_distance",
        "max_distance",
    }
    assert doc["horizon"] == 100 and doc["window"] == 8


class WindowPoint:
    """Stand-in point whose expansion is a slice of a fixed window."""

    def __init__(self, window):
        self.window = window

    def expand(self, radius):
        mid = (len(self.window) - 1) // 2
        return self.window[mid - radius : mid + radius + 1]


def _synthetic_pairs():
    """Seeded window pairs over two letters, with their horizon and window,
    covering the edge cases of the flag reading."""
    rng = random.Random(6)
    cases = []
    for horizon, window in [(0, 1), (0, 16), (1, 1), (5, 2), (40, 3), (300, 16), (1500, 1), (2000, 2)]:
        size = 2 * (horizon + window) + 1
        x = "".join(rng.choice("ab") for _ in range(size))
        flipped = x.translate(str.maketrans("ab", "ba"))
        cases.append((x, x, horizon, window))  # no differences
        cases.append((x, flipped, horizon, window))  # every position different
        mid = horizon + window
        # differences only before time 0 and after the horizon
        outside = "".join(
            f if not 0 <= i - mid <= horizon and rng.random() < 0.3 else c
            for i, (c, f) in enumerate(zip(x, flipped))
        )
        cases.append((x, outside, horizon, window))
        for density in (0.002, 0.05, 0.5):
            y = "".join(f if rng.random() < density else c for c, f in zip(x, flipped))
            cases.append((x, y, horizon, window))
    return cases


@pytest.mark.parametrize("top", [2, 256, 257, 0x10000])
def test_difference_flags_match_per_symbol_comparison(top):
    # codes below ``top``: the XOR kernel while every code is below 256,
    # the per-symbol comparison once a window does not encode as latin-1
    rng = random.Random(top)
    for horizon, window in [(0, 1), (3, 2), (100, 16), (2000, 5)]:
        size = 2 * (horizon + window) + 1
        x = "".join(chr(rng.randrange(top)) for _ in range(size))
        for density in (0.0, 0.1, 1.0):
            y = "".join(
                chr(rng.randrange(top)) if rng.random() < density else c for c in x
            )
            flags = _difference_flags(WindowPoint(x), WindowPoint(y), horizon, window)
            assert flags == bytes(map(operator.ne, x, y)), (horizon, window, density)
    # one window past latin-1, the other inside it
    x = "ab\u0100"
    assert _difference_flags(WindowPoint(x), WindowPoint("abc"), 0, 1) == b"\0\0\1"
    assert _difference_flags(WindowPoint("abc"), WindowPoint(x), 0, 1) == b"\0\0\1"


def test_difference_flags_memory_stays_linear(fixtures):
    # About 2^22 symbols: the tracemalloc peak stays under 6 bytes per
    # window symbol (the two windows, their encodings and the flags).
    morse = fixtures["morse"]
    x = stream_from_fixed_point(morse, "0", "0")
    y = stream_from_fixed_point(morse, "1", "0")
    window = 16
    horizon = (1 << 21) - window
    size = 2 * (horizon + window) + 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        flags = _difference_flags(x, y, horizon, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(flags) == size
    assert (peak - before) / size < 6


def test_evidence_matches_stepwise_on_fixture_pairs(point_corpus):
    for name, points in point_corpus.items():
        p = points[0].subst.constant_length
        horizons = [p**k for k in range(8) if p**k <= 729]
        for i, x in enumerate(points):
            for y in points[i + 1 :]:
                for horizon in horizons:
                    for window in (1, 2, 16):
                        assert empirical_class(x, y, horizon, window) == stepwise_empirical_class(
                            x, y, horizon, window
                        ), (name, i, horizon, window)


def test_evidence_matches_stepwise_on_synthetic_windows():
    reports = []
    for x, y, horizon, window in _synthetic_pairs():
        px, py = WindowPoint(x), WindowPoint(y)
        reports.append(empirical_class(px, py, horizon, window))
        assert reports[-1] == stepwise_empirical_class(px, py, horizon, window), (horizon, window)
    assert any(report.proximality_count > EVENT_CAP for report in reports)
    assert any(report.separation_count > EVENT_CAP for report in reports)


def test_radius_samples_read_the_report_radii():
    for x, y, horizon, window in _synthetic_pairs():
        samples = radius_samples(WindowPoint(x), WindowPoint(y), horizon, window)
        mid = horizon + window
        assert samples == [
            (n, agreement_radius(x, y, n, window, center=mid)) for n in range(horizon + 1)
        ]
        report = empirical_class(WindowPoint(x), WindowPoint(y), horizon, window)
        radii = [r for _, r in samples]
        assert report.max_distance == 2.0 ** -min(radii)
        assert report.min_distance == 2.0 ** -max(radii)


def test_points_shared_across_threads(fixtures):
    # README: points are shared read-only across threads and memoise
    # idempotently, so concurrent expansions and reports match the ones
    # computed on one thread
    def pairs():
        cp = construct_ly_pair(fixtures["ly_two"])
        rp = construct_recurrent_ly_pair(fixtures["baacd"])
        morse = fixtures["morse"]
        return [
            (cp.x, cp.y),
            (rp.x, rp.y),
            (stream_from_fixed_point(morse, "0", "0"), stream_from_fixed_point(morse, "1", "0")),
        ]

    rng = random.Random(8)
    jobs = [(rng.randrange(3), rng.choice((1, 7, 40, 200, 729)), rng.choice((1, 2, 16)))
            for _ in range(800)]

    def run(shared, job):
        k, horizon, window = job
        x, y = shared[k]
        return x.expand(horizon + window), y.expand(horizon), empirical_class(x, y, horizon, window)

    single = pairs()
    expected = [run(single, job) for job in jobs]
    shared = pairs()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda job: run(shared, job), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
