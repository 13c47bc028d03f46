"""The inverse-limit family: levels, projections, distinguished points,
scrambled-family verification, and window preimages."""

import pytest

from substchaos import (
    PairClass,
    decide_infinite,
    is_primitive,
    iterate,
    preimage_candidates,
    rho,
    tower_point_x,
    tower_point_y,
    tower_substitution,
    verify_scrambled_S,
)
from substchaos import tower
from substchaos.errors import PreconditionError
from substchaos.substitution import language_chr
from substchaos.tower import element_component, rho_chr

from conftest import primitive_by_powers, recursive_preimage_candidates


def test_level_one_rules():
    s = tower_substitution(1)
    assert s.rules() == {"0": "001", "1": "101"}


def test_level_two_rules():
    s = tower_substitution(2)
    assert s.rules() == {"0": "001", "1": "102", "2": "202"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_levels_primitive_and_infinite(n):
    s = tower_substitution(n)
    assert s.constant_length == 3
    assert is_primitive(s)
    assert decide_infinite(s)


def test_levels_up_to_60_are_primitive_with_an_infinite_subshift():
    # the facts the module docstring proves for every level, which
    # tower_substitution does not check at run time
    for n in range(1, 61):
        s = tower_substitution(n)
        assert s.is_injective()
        assert is_primitive(s) and primitive_by_powers(s), n
        assert decide_infinite(s), n


def test_every_two_letter_word_is_in_the_language_up_to_level_40():
    # so every companion seed junction "m (n-1)" is admissible
    for m in range(1, 41):
        words = language_chr(tower_substitution(m), 2)
        assert len(words) == (m + 1) ** 2, m
        for n in range(1, m + 1):
            assert chr(m) + chr(n - 1) in words, (m, n)


def test_verify_builds_each_member_component_once_per_level(monkeypatch):
    calls = []

    def counted(n, level):
        calls.append((n, level))
        return element_component(n, level)

    monkeypatch.setattr(tower, "element_component", counted)
    for depth in (2, 3):
        calls.clear()
        verify_scrambled_S(depth, 3**4)
        assert len(calls) == len(set(calls)) == depth * (depth + 2)
    assert len(calls) == 15


def test_rho_letterwise():
    assert rho(1, "2") == "1"
    assert rho(1, "102") == "101"
    assert rho(1, "001") == "001"


def test_rho_commutes_with_levels():
    for n in range(1, 7):
        lower = tower_substitution(n)
        upper = tower_substitution(n + 1)
        for tok in upper.alphabet:
            image_then_project = rho(n, upper.image(tok))
            project_then_image = lower.image(rho(n, tok))
            assert image_then_project == project_then_image, (n, tok)


def test_rho_rejects_foreign_letters():
    with pytest.raises(Exception):
        rho(1, "3")


def test_point_x_matches_direct_iteration():
    x = tower_point_x(1)
    s = tower_substitution(1)
    # right side: letter, then the iterated images of the two-letter seed
    expected = "1"
    k = 0
    while len(expected) < 11:
        expected += iterate(s, "01", k)
        k += 1
    assert x.window(10)[10:] == expected[:11]
    # left side: iterated images of the top letter, suffix-aligned
    left = iterate(s, "1", 4)
    assert x.window(10)[:10] == left[-10:]


def test_point_y_window():
    y = tower_point_y(2, 1)
    w = y.window(6)
    assert w[6] == "0"
    assert w[7:9] == "01"


def test_rho_compatibility_on_windows():
    for n in (1, 2, 3):
        xn = tower_point_x(n)
        xn1 = tower_point_x(n + 1)
        ynn = tower_point_y(n + 1, n + 1)
        assert rho_chr(n, xn1.expand(200)) == xn.expand(200)
        assert rho_chr(n, ynn.expand(200)) == xn.expand(200)
        ym = tower_point_y(n + 1, n)
        yn = tower_point_y(n, n)
        assert rho_chr(n, ym.expand(200)) == yn.expand(200)


def test_point_y_preconditions():
    with pytest.raises(PreconditionError):
        tower_point_y(1, 2)


def test_element_components():
    assert element_component(3, 1) == tower_point_x(1)
    assert element_component(3, 2) == tower_point_x(2)
    assert element_component(3, 3) == tower_point_y(3, 3)
    assert element_component(3, 5) == tower_point_y(5, 3)


def test_scrambled_family_pattern_small():
    report = verify_scrambled_S(2, 3**6)
    assert not report.has_distal
    for entry in report.entries:
        if entry.level == entry.first:
            assert entry.verdict == PairClass.ASYMPTOTIC.value
            assert entry.separation_count <= entry.level + 2
        else:
            assert entry.verdict == PairClass.LI_YORKE.value


def test_scrambled_family_requires_depth():
    with pytest.raises(PreconditionError):
        verify_scrambled_S(1, 81)


def test_tower_report_serialization():
    report = verify_scrambled_S(2, 81)
    doc = report.to_json()
    assert doc["depth"] == 2
    assert doc["has_distal"] is False
    assert doc["entries"]
    assert "verdict" in doc["entries"][0]
    assert report.table().splitlines()


def test_preimage_candidates_bounded():
    for n in (1, 2, 3):
        x = tower_point_x(n)
        w = x.expand(729 + 10)
        for j in range(0, 10, 3):
            win = w[10 + j : 10 + j + 2 * 729 + 1]
            cands = preimage_candidates(n, win)
            assert 1 <= len(cands) <= 2, (n, j)
            for cand in cands:
                assert rho_chr(n, cand) == win


def test_preimage_candidates_exact_small():
    # short windows are checked against the enumerated language directly
    s1 = tower_substitution(1)
    win = s1.encode("001")
    cands = preimage_candidates(1, win)
    assert cands
    for cand in cands:
        assert rho_chr(1, cand) == win


def _reference_windows(n):
    """The tower-point windows of ``test_preimage_candidates_bounded`` and
    of acceptance criterion 7 at level ``n``, then every level-``n``
    language word shorter than 30 letters, in order."""
    base = tower_point_x(n).expand(729 + 12)
    windows = [base[12 + j : 12 + j + 2 * 729 + 1] for j in range(10)]
    samples = [tower_point_x(n), tower_point_y(n, n)]
    if n >= 2:
        samples.append(tower_point_y(n, n - 1))
    windows += [pt.expand(729) for pt in samples]
    lower = tower_substitution(n)
    for m in range(1, 30):
        windows += sorted(language_chr(lower, m))
    return windows


@pytest.mark.parametrize("n", [1, 2, 3])
def test_preimage_candidates_match_the_recursive_reference(n):
    # each window and each change of its middle letter, with the default
    # core and with every candidate kept, against the recursive search
    total = 0
    for win in _reference_windows(n):
        mid = (len(win) - 1) // 2
        mutants = [win[:mid] + chr(c) + win[mid + 1 :] for c in range(n + 1) if chr(c) != win[mid]]
        for w in [win, *mutants]:
            assert preimage_candidates(n, w) == recursive_preimage_candidates(n, w), (n, w)
            everything = preimage_candidates(n, w, core_radius=len(w))
            assert everything == recursive_preimage_candidates(n, w, core_radius=len(w)), (n, w)
            total += len(everything)
    assert total > 0


def test_preimage_candidates_refuse_an_empty_window_and_level_zero():
    with pytest.raises(PreconditionError, match="word length must be >= 1"):
        preimage_candidates(1, "")
    with pytest.raises(PreconditionError, match="tower levels start at 1"):
        preimage_candidates(0, chr(0))
