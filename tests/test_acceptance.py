"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact (decision procedures) or stated inline
(event counts at fixed horizons)."""

import subprocess
import sys

from substchaos import (
    Coincidence,
    PairClass,
    analyze,
    build_scrambled_set,
    classify_pair,
    coincidence_class,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    decide_infinite,
    empirical_class,
    enumerate_fiber,
    enumerate_ly_orbits,
    fiber_bound,
    has_ly_pairs,
    has_uncountable_ly,
    is_primitive,
    one_to_one_reduction,
    parse_substitution,
    rho,
    stream_from_entries,
    tower_substitution,
    verify_scrambled_S,
)
from substchaos.pairs import ly_witness
from substchaos.report import _brute_scan
from substchaos.substitution import iterate_chr
from substchaos.tower import preimage_candidates, tower_point_x, tower_point_y

from conftest import (
    FIXTURE_SOURCES,
    check_recurrent_return_times,
    count_occurrences,
    fixed_points,
    recurrence_check,
    successor_of_digit_list,
    zip_pair_word,
)
from test_streams import sample_digit_sequences

HORIZON = 3**10
WINDOW = 16


def _criterion(number, title):
    def report(ok):
        print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}")

    return report


def test_criterion_1_fixture_decisions(fixtures):
    done = _criterion(1, "fixture decisions")
    try:
        morse = fixtures["morse"]
        assert is_primitive(morse) and decide_infinite(morse)
        assert coincidence_class(morse).kind is Coincidence.NO_COINCIDENCE
        assert has_ly_pairs(morse) is False

        toep = fixtures["toeplitz"]
        assert coincidence_class(toep).kind is Coincidence.OVERALL
        assert has_ly_pairs(toep) is False

        assert has_ly_pairs(fixtures["ly_two"]) is True

        aba = fixtures["aba"]
        assert has_ly_pairs(aba) is True
        assert has_uncountable_ly(aba) is False
        data = analyze(aba).data
        assert data["strong_li_yorke"] is data["uncountable_li_yorke"] is False
        orbits = enumerate_ly_orbits(aba)
        assert orbits and len(orbits) < 10**4

        baacd = fixtures["baacd"]
        assert has_uncountable_ly(baacd) is True
        data = analyze(baacd).data
        assert data["strong_li_yorke"] is data["uncountable_li_yorke"] is True
        rp = construct_recurrent_ly_pair(baacd)
        check_recurrent_return_times(rp)
        x = stream_from_entries(baacd, [], [["b", "c", "aba"]])
        y = stream_from_entries(baacd, [], [["b", "d", "abd"]])
        assert recurrence_check(x, y, ("c", "d"), 4) is False
        ci, di = baacd.index("c"), baacd.index("d")
        for m in range(2, 7):
            big = zip_pair_word(
                baacd, iterate_chr(baacd, chr(ci), m), iterate_chr(baacd, chr(di), m)
            )
            for i in range(1, m):
                small = zip_pair_word(
                    baacd,
                    iterate_chr(baacd, chr(ci), i),
                    iterate_chr(baacd, chr(di), i),
                )
                # no second aligned occurrence (one copy is the image of
                # the central column itself)
                assert count_occurrences(big, small) == 1, (i, m)

        four = fixtures["four"]
        assert has_ly_pairs(four) is False
        w1 = iterate_chr(four, chr(1), 2)
        w2 = iterate_chr(four, chr(2), 2)
        assert any(a == b for a, b in zip(w1, w2))
        assert sum(a != b for a, b in zip(w1, w2)) >= 2

        same = parse_substitution("0 -> 01\n1 -> 01")
        assert decide_infinite(same) is False
        period_two = parse_substitution("0 -> 010\n1 -> 101")
        assert decide_infinite(period_two) is False
        assert one_to_one_reduction(period_two).reduced.size == 2
    except BaseException:
        done(False)
        raise
    done(True)


def test_criterion_2_oracle_equivalence(fixtures, random_corpus):
    done = _criterion(2, "engine vs brute-force scans")
    try:
        candidates = list(fixtures.values()) + random_corpus
        assert len(random_corpus) == 200
        for s in candidates:
            brute_ly, brute_unc = _brute_scan(s, 10**6)
            engine_ly = has_ly_pairs(s)
            engine_unc = has_uncountable_ly(s)
            assert engine_ly or not brute_ly, s.rules()
            assert engine_unc or not brute_unc, s.rules()
            assert brute_ly or not engine_ly or (
                s.constant_length ** ly_witness(s)[1] > 10**6
            ), s.rules()
            assert brute_unc or not engine_unc or brute_ly, s.rules()
    except BaseException:
        done(False)
        raise
    done(True)


def test_criterion_3_factor_map_property(point_corpus):
    done = _criterion(3, "odometer factor map under the shift")
    try:
        for name, points in point_corpus.items():
            for x in points:
                p = x.subst.constant_length
                shifted = x.shift()
                assert shifted.pi_digits(32) == successor_of_digit_list(
                    x.pi_digits(32), p
                ), name
                assert shifted.expand(1024) == x.expand(1025)[2:], name
    except BaseException:
        done(False)
        raise
    done(True)


def test_criterion_4_fiber_bound(fixtures):
    done = _criterion(4, "fiber sizes within the length-3 word count")
    try:
        for name, s in fixtures.items():
            bound = fiber_bound(s)
            sequences = sample_digit_sequences(s.constant_length)
            assert len(sequences) == 20
            for digits in sequences:
                points = enumerate_fiber(s, digits, radius=128)
                assert len(points) <= bound, (name, digits)
    except BaseException:
        done(False)
        raise
    done(True)


def _classified_pairs(fixtures):
    morse = fixtures["morse"]
    pairs = []
    fp = fixed_points(morse)
    for i in range(len(fp)):
        for j in range(i + 1, len(fp)):
            pairs.append((fp[i], fp[j]))
    tp = fixed_points(fixtures["toeplitz"])
    for i in range(len(tp)):
        for j in range(i + 1, len(tp)):
            pairs.append((tp[i], tp[j]))
    cp = construct_ly_pair(fixtures["ly_two"])
    pairs.append((cp.x, cp.y))
    cpa = construct_ly_pair(fixtures["aba"])
    pairs.append((cpa.x, cpa.y))
    pairs.extend(enumerate_ly_orbits(fixtures["aba"])[:2])
    rp = construct_recurrent_ly_pair(fixtures["baacd"])
    pairs.append((rp.x, rp.y))
    baacd = fixtures["baacd"]
    pairs.append(
        (
            stream_from_entries(baacd, [], [["b", "c", "aba"]]),
            stream_from_entries(baacd, [], [["b", "d", "abd"]]),
        )
    )
    return pairs


def _check_consistency(x, y, verdict):
    report = empirical_class(x, y, HORIZON, WINDOW)
    if verdict.kind is PairClass.DISTAL:
        assert report.proximality_count == 0
    elif verdict.kind is PairClass.ASYMPTOTIC:
        if report.separation_count:
            assert report.last_separation <= report.max_last_difference
            assert report.last_separation <= 4096
    elif verdict.kind is PairClass.LI_YORKE:
        assert report.proximality_count >= 3
        assert report.separation_count >= 3
    else:
        raise AssertionError(f"unexpected verdict {verdict}")
    return report


def test_criterion_5_verdict_simulator_consistency(fixtures):
    done = _criterion(5, "evidence never contradicts verdicts")
    try:
        for x, y in _classified_pairs(fixtures):
            verdict = classify_pair(x, y)
            assert verdict.kind in (
                PairClass.DISTAL,
                PairClass.ASYMPTOTIC,
                PairClass.LI_YORKE,
            )
            _check_consistency(x, y, verdict)
    except BaseException:
        done(False)
        raise
    done(True)


def test_criterion_6_scrambled_sets():
    done = _criterion(6, "scrambled sets of sizes 2..4")
    try:
        for size in (1, 2, 3):
            s, points = build_scrambled_set(size)
            assert len(points) == size + 1
            for i in range(len(points)):
                for j in range(i + 1, len(points)):
                    verdict = classify_pair(points[i], points[j])
                    assert verdict.kind is PairClass.LI_YORKE, (size, i, j)
                    _check_consistency(points[i], points[j], verdict)
    except BaseException:
        done(False)
        raise
    done(True)


def test_criterion_7_tower():
    done = _criterion(7, "inverse-limit family")
    try:
        for n in range(1, 6):
            level = tower_substitution(n)
            assert is_primitive(level)
            assert decide_infinite(level)
        for n in range(1, 7):
            upper = tower_substitution(n + 1)
            lower = tower_substitution(n)
            for tok in upper.alphabet:
                assert rho(n, upper.image(tok)) == lower.image(rho(n, tok))
        report = verify_scrambled_S(4, 3**9)
        assert not report.has_distal
        for entry in report.entries:
            expected = (
                PairClass.ASYMPTOTIC if entry.level == entry.first else PairClass.LI_YORKE
            )
            assert entry.verdict == expected.value, entry
        for n in (1, 2, 3):
            samples = [tower_point_x(n), tower_point_y(n, n)]
            if n >= 2:
                samples.append(tower_point_y(n, n - 1))
            base = tower_point_x(n).expand(729 + 12)
            offsets = [
                base[12 + j : 12 + j + 2 * 729 + 1]
                for j in range(10 - len(samples))
            ]
            windows = [pt.expand(729) for pt in samples] + offsets
            assert len(windows) == 10
            for win in windows:
                count = len(preimage_candidates(n, win))
                assert 1 <= count <= 2, (n, count)
    except BaseException:
        done(False)
        raise
    done(True)


def test_criterion_8_determinism(tmp_path):
    done = _criterion(8, "byte-identical reports")
    try:
        for name, source in FIXTURE_SOURCES.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(source)
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "substchaos.cli", "analyze", str(path), "--json"],
                    capture_output=True,
                )
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0, name
            assert runs[0].stdout == runs[1].stdout, name
    except BaseException:
        done(False)
        raise
    done(True)
