"""Shared fixture substitutions, the point corpus, the seeded random
corpus used by the oracle-agreement tests, and the test-side
cross-checks of library decisions."""

import itertools
import json
import random
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from substchaos import (
    Coincidence,
    PairClass,
    PairVerdict,
    RepresentedPoint,
    Substitution,
    coincidence_class,
    complexity,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    decide_infinite,
    enumerate_fiber,
    is_primitive,
    parse_substitution,
    stream_from_entries,
    stream_from_fixed_point,
)
from substchaos import reduction
from substchaos.errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
    SearchBudgetError,
)
from substchaos.odometer import OdometerDigits
from substchaos.pairs import (
    CERTIFICATE_WORD_CAP,
    DoubleCertificate,
    _aligned_entries,
    _chain_entries,
    _past_finite_forward_data,
    _reconstruct_chain,
    _suffix_class,
)
from substchaos.simulate import (
    DEFAULT_WINDOW,
    EVENT_CAP,
    EvidenceReport,
    _difference_flags,
    _radii,
)
from substchaos.streams import _require_recognizable, _seed_choices
from substchaos.substitution import (
    DEFAULT_WORD_BUDGET,
    cycle_length,
    first_letter_map,
    iterate_chr,
    last_letter_map,
    language_chr,
)
from substchaos.tower import tower_substitution

MORSE = "0 -> 01\n1 -> 10"
TOEPLITZ = "0 -> 01\n1 -> 00"
LY_TWO = "0 -> 010\n1 -> 100"
ABA = "a -> aba\nb -> bca\nc -> cca"
BAACD = "a -> baacd\nb -> bbbcd\nc -> bcaba\nd -> bdabd"
FOUR = "0 -> 0123\n1 -> 1032\n2 -> 1023\n3 -> 0132"
SAME = "0 -> 01\n1 -> 01"
PERIOD_TWO = "0 -> 010\n1 -> 101"
FLIP = "0 -> 10\n1 -> 01"

FIXTURE_SOURCES = {
    "morse": MORSE,
    "toeplitz": TOEPLITZ,
    "ly_two": LY_TWO,
    "aba": ABA,
    "baacd": BAACD,
    "four": FOUR,
}


# the classes of bench/countable.json: 3-letter, p <= 3, countably many
# Li-Yorke pairs; 30 of the 60 have overall coincidences
COUNTABLE_CLASSES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "countable.json").read_text()
)


def cyclic_document(n, p):
    """The JSON rule document of the cyclic family: letter i maps to i,
    i+1, ..., i+p-1 (mod n), with the tokens l0 .. l(n-1)."""
    tokens = [f"l{i}" for i in range(n)]
    rules = {tokens[i]: [tokens[(i + k) % n] for k in range(p)] for i in range(n)}
    return json.dumps({"alphabet": tokens, "rules": rules})


@pytest.fixture(scope="session")
def fixtures():
    return {name: parse_substitution(src) for name, src in FIXTURE_SOURCES.items()}


def fixed_points(subst):
    """All admissible two-sided limit points of a substitution."""
    lam = last_letter_map(subst)
    first = first_letter_map(subst)
    lang2 = language_chr(subst, 2)
    points = []
    for li in range(subst.size):
        if cycle_length(lam, li) is None:
            continue
        for ri in range(subst.size):
            if cycle_length(first, ri) is None:
                continue
            if chr(li) + chr(ri) not in lang2:
                continue
            points.append(
                stream_from_fixed_point(
                    subst, subst.alphabet[li], subst.alphabet[ri]
                )
            )
    return points


@pytest.fixture(scope="session")
def point_corpus(fixtures):
    """Per-fixture list of representable points used by the factor-map and
    fiber acceptance checks."""
    corpus = {}
    for name, s in fixtures.items():
        pts = list(fixed_points(s))
        p = s.constant_length
        for digits in [
            OdometerDigits(p, (), (1,)),
            OdometerDigits(p, (), (p - 1,)),
            OdometerDigits(p, (1,), (0,)),
        ]:
            pts.extend(enumerate_fiber(s, digits))
        corpus[name] = pts
    # The first-letter map of every fixture has only fixed points, so a
    # right seed stepped along it by the wrong number of levels would move
    # no point above; here it is the 2-cycle 0 <-> 1.  The fiber 0^3 1^inf
    # carries right seeds under a preperiod, the fiber 1^inf crosses the
    # right end on its first shift.
    flip = parse_substitution(FLIP)
    corpus["flip"] = [
        pt
        for digits in [OdometerDigits(2, (0, 0, 0), (1,)), OdometerDigits(2, (), (1,))]
        for pt in enumerate_fiber(flip, digits)
    ]
    cp = construct_ly_pair(fixtures["ly_two"])
    corpus["ly_two"].extend([cp.x, cp.y])
    baacd = fixtures["baacd"]
    rp = construct_recurrent_ly_pair(baacd)
    corpus["baacd"].extend([rp.x, rp.y])
    corpus["baacd"].append(stream_from_entries(baacd, [], [["b", "c", "aba"]]))
    corpus["baacd"].append(stream_from_entries(baacd, [], [["b", "d", "abd"]]))
    return corpus


# ---------------------------------------------------------------------------
# reference primitivity: a walk through the powers of the substitution


def primitive_by_powers(subst):
    """True when some power maps every letter to a word containing every
    letter: the letter sets of the iterated images, walked up to the
    Wielandt bound (n-1)^2 + 1 on the exponent of a primitive n x n
    matrix."""
    n = subst.size
    base = [frozenset(map(ord, img)) for img in subst.images]
    full = frozenset(range(n))
    cur = base
    for _ in range((n - 1) * (n - 1) + 1):
        if all(col == full for col in cur):
            return True
        cur = [frozenset().union(*(base[c] for c in col)) for col in cur]
    return False


# ---------------------------------------------------------------------------
# reference language: a fixpoint of one application of the substitution,
# run separately for every length


def closure_language_chr(subst, length):
    """All internal length-``length`` subwords of the subshift, as a
    frozenset.  Requires a primitive substitution."""
    if length < 1:
        raise PreconditionError("word length must be >= 1")
    if not is_primitive(subst):
        raise PreconditionError("language generation requires a primitive substitution")
    n = subst.size
    if n == 1:
        return frozenset({chr(0) * length})
    # Grow letter images until every one is long enough to contain a
    # length-`length` factor, seed with those factors, then close under
    # one application of the substitution; the set is monotone and
    # bounded, so the loop terminates at the full factor set.
    words = [chr(i) for i in range(n)]
    while min(len(w) for w in words) < length:
        words = [subst.apply(w) for w in words]
    current = set()
    for w in words:
        current.update(w[i : i + length] for i in range(len(w) - length + 1))
    while True:
        fresh = set()
        for w in current:
            img = subst.apply(w)
            fresh.update(img[i : i + length] for i in range(len(img) - length + 1))
        if fresh <= current:
            return frozenset(current)
        current |= fresh


def round_two_letter_words(subst):
    """L_2 of a primitive substitution on at least two letters: the
    two-letter factors of letter images of length >= 2, closed under one
    application of σ to every word per round.  The set is monotone and
    bounded, so the loop ends at the full factor set."""
    words = [chr(i) for i in range(subst.size)]
    while min(len(w) for w in words) < 2:
        words = [subst.apply(w) for w in words]
    current = {w[i : i + 2] for w in words for i in range(len(w) - 1)}
    while True:
        fresh = set()
        for w in current:
            img = subst.apply(w)
            fresh.update(img[i : i + 2] for i in range(len(img) - 1))
        if fresh <= current:
            return frozenset(current)
        current |= fresh


# ---------------------------------------------------------------------------
# reference membership and tower preimages: recursive de-substitution down
# to short words looked up in the closure language


cached_closure_language_chr = lru_cache(maxsize=None)(closure_language_chr)


def desubstitute(subst, word):
    """Read an internal word as a slice of the image of a parent word.

    Yields ``(start, parent)`` with ``subst.apply(parent)[start : start +
    len(word)] == word`` for every block alignment of ``word`` (``lead``
    letters before the first whole block, ``start = (p - lead) % p``) and
    every letter whose image ends with the partial head block and every
    letter whose image starts with the partial tail block.  Whole blocks
    are read back through the image index, so for an injective
    substitution every parent of ``word`` is yielded.  Requires constant
    length ``p`` and ``len(word) >= p``.
    """
    p = subst.constant_length
    if p is None or len(word) < p:
        raise PreconditionError("de-substitution needs constant length and a word of >= p letters")
    img_index = {img: i for i, img in enumerate(subst.images)}
    m = len(word)
    for lead in range(p):
        body_end = lead + ((m - lead) // p) * p
        core = []
        for i in range(lead, body_end, p):
            letter = img_index.get(word[i : i + p])
            if letter is None:
                break
            core.append(chr(letter))
        else:
            head, tail = word[:lead], word[body_end:]
            lefts = [chr(c) for c, img in enumerate(subst.images) if img.endswith(head)]
            rights = [chr(c) for c, img in enumerate(subst.images) if img.startswith(tail)]
            core = "".join(core)
            for lc in lefts if head else [""]:
                for rc in rights if tail else [""]:
                    yield (p - lead) % p, lc + core + rc


def recursive_in_language(subst, chrword):
    """Reference for ``substitution.in_language``: a word longer than
    ``max(2p + 2, 4)`` letters is in the language exactly when one of its
    parents (``desubstitute``) is, so the check recurses on parents until
    they are short enough to look up."""
    if subst.constant_length is None or not subst.is_injective():
        raise PreconditionError("membership test needs an injective constant-length substitution")
    if not chrword:
        return True
    if len(chrword) <= max(2 * subst.constant_length + 2, 4):
        return chrword in cached_closure_language_chr(subst, len(chrword))
    return any(recursive_in_language(subst, parent) for _, parent in desubstitute(subst, chrword))


@lru_cache(maxsize=None)
def rho_preimage_windows(n, window):
    """Words over the level-``n+1`` tower alphabet that project letterwise
    to the level-``n`` ``window`` and lie in the level-``n+1`` language.

    A long language word is a slice of the image of a shorter one, and
    projection commutes with the substitutions, so each block alignment
    of the lower window determines (up to boundary letters) a lower
    parent window whose upper preimages expand and slice back to the
    candidates.  The parent shrinks threefold per round.  Memoised, so a
    window compared at several core radii is searched once."""
    lower = tower_substitution(n)
    upper = tower_substitution(n + 1)
    base_len = 3 * lower.constant_length
    memo = {}

    def project(w):
        return "".join(chr(min(ord(ch), n)) for ch in w)

    def solve(win):
        if win not in memo:
            m = len(win)
            if m <= base_len:
                found = {w for w in cached_closure_language_chr(upper, m) if project(w) == win}
            else:
                found = set()
                for start, parent in desubstitute(lower, win):
                    found.update(upper.apply(up)[start : start + m] for up in solve(parent))
            memo[win] = sorted(found)
        return memo[win]

    return solve(window)


def recursive_preimage_candidates(n, window, core_radius=None):
    """Reference for ``tower.preimage_candidates``: the windows of
    ``rho_preimage_windows`` counted up to agreement on the central
    core."""
    words = rho_preimage_windows(n, window)
    mid = (len(window) - 1) // 2
    if core_radius is None:
        core_radius = max(1, mid // 9)
    if core_radius >= mid:
        return words
    seen = {}
    for w in words:
        seen.setdefault(w[mid - core_radius : mid + core_radius + 1], w)
    return [seen[key] for key in sorted(seen)]


# ---------------------------------------------------------------------------
# seeded random substitution corpus

CORPUS_SEED = 20260811


def random_substitutions(
    count,
    seed=CORPUS_SEED,
    max_letters=4,
    max_length=4,
    one_to_one=True,
    require_infinite=True,
    constant=True,
):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_letters)
        p = rng.randint(2, max_length)
        alphabet = tuple("abcd"[:n])
        rules = {
            tok: "".join(rng.choice(alphabet) for _ in range(p)) for tok in alphabet
        }
        s = Substitution.from_rules(rules, alphabet)
        if constant and s.constant_length is None:
            continue
        if one_to_one and not s.is_injective():
            continue
        if not is_primitive(s):
            continue
        if require_infinite and not decide_infinite(s):
            continue
        out.append(s)
    return out


@pytest.fixture(scope="session")
def random_corpus():
    """200 one-to-one primitive constant-length substitutions with an
    infinite subshift, |A| <= 4, p <= 4 (deterministic seed)."""
    return random_substitutions(200)


@pytest.fixture(scope="session")
def random_corpus_any():
    """200 primitive substitutions without the one-to-one/infinite
    restrictions, for the finiteness-oracle agreement check."""
    return random_substitutions(
        200, seed=CORPUS_SEED + 1, one_to_one=False, require_infinite=False
    )


@pytest.fixture(scope="session")
def variable_corpus():
    """40 primitive substitutions whose images differ in length (1 to 5),
    |A| <= 5 (deterministic seed)."""
    rng = random.Random(CORPUS_SEED + 2)
    out = []
    while len(out) < 40:
        alphabet = tuple("abcde"[: rng.randint(2, 5)])
        rules = {
            tok: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
            for tok in alphabet
        }
        s = Substitution.from_rules(rules, alphabet)
        if s.constant_length is None and is_primitive(s):
            out.append(s)
    return out


# ---------------------------------------------------------------------------
# test-side cross-checks of library decisions


class ComplexityVerdict(Enum):
    FINITE = "finite"
    INFINITE_EVIDENCE = "infinite_evidence"
    INCONCLUSIVE = "inconclusive"


def oracle_infinite_via_complexity(subst, max_length):
    """Cross-check for the finiteness decision based on factor counts:
    a stalled count proves a finite minimal subshift, strictly growing
    counts up to the bound are evidence of infiniteness."""
    if max_length < 1:
        return ComplexityVerdict.INCONCLUSIVE
    counts = complexity(subst, max_length + 1)
    for k in range(max_length):
        if counts[k + 1] == counts[k]:
            return ComplexityVerdict.FINITE
    if all(counts[k] >= k + 2 for k in range(max_length)):
        return ComplexityVerdict.INFINITE_EVIDENCE
    return ComplexityVerdict.INCONCLUSIVE


def classify_pair_two_letter(x, y):
    """Two-letter shortcut: with a coincidence the pair is Li-Yorke exactly
    when suffixes differ at infinitely many levels, otherwise asymptotic;
    without coincidences a difference at a valid coordinate means distal.
    Used as a cross-check against the general path."""
    s = x.subst
    if s.size != 2:
        raise PreconditionError("shortcut only applies to two-letter alphabets")
    _require_recognizable(s)
    if x.odometer_digits() != y.odometer_digits():
        return PairVerdict(PairClass.DISTAL, "two-letter-distinct-digits")
    if x == y:
        return PairVerdict(PairClass.ASYMPTOTIC, "two-letter-identical")
    x, y = _past_finite_forward_data(x, y)
    k, L, ex, ey = _aligned_entries(x, y)
    infinitely_many_diffs = any(ex[k + j].suffix != ey[k + j].suffix for j in range(L))
    has_coin = coincidence_class(s).kind is not Coincidence.NO_COINCIDENCE
    if has_coin:
        if infinitely_many_diffs:
            return PairVerdict(PairClass.LI_YORKE, "two-letter-coincidence")
        return PairVerdict(PairClass.ASYMPTOTIC, "two-letter-coincidence")
    if infinitely_many_diffs or any(
        e1.block != e2.block for e1, e2 in zip(ex, ey)
    ):
        return PairVerdict(PairClass.DISTAL, "two-letter-no-coincidence")
    return PairVerdict(PairClass.ASYMPTOTIC, "two-letter-no-coincidence")


def successor_of_digit_list(digits, base):
    """Plain +1 with carry on a finite digit list (used to cross-check the
    factor-map property on truncated expansions)."""
    out = list(digits)
    for i, d in enumerate(out):
        if d != base - 1:
            out[i] = d + 1
            return out
        out[i] = 0
    return out


def right_end_jump(x):
    """The shifts that take a point with a right seed past its finite
    right side: p^k - D_k, k its preperiod length and D_k = sum(digit_i
    p^i, i < k); 0 without a right seed."""
    if x.right_seed is None:
        return 0
    p = x.subst.constant_length
    k = len(x.preperiod)
    return p**k - sum(x.digit(i) * p**i for i in range(k))


# ---------------------------------------------------------------------------
# recurrence of the constructed pair: the proven return times, and the
# window scan they replaced


def check_recurrent_return_times(rp, levels=(1, 2)):
    """Check the return times of ``construct_recurrent_ly_pair`` proven in
    its docstring, on the expanded windows: for each k in ``levels``,
    S^(t_k) x agrees with x on [-r_k, r_k], and likewise y.  The witness
    (m, j1, j2) is squared here by the same rule; the period digits, the
    level-2m center and the second occurrence R are checked against it.
    Returns whether the witness was squared."""
    s = rp.x.subst
    p = s.constant_length
    cert = rp.certificate
    a, b = chr(s.index(cert.a)), chr(s.index(cert.b))
    m, j1, j2 = cert.power, cert.first, cert.second
    squared = j1 == 0 or j2 == p**m - 1
    if squared:
        m, j1, j2 = 2 * m, j1 * p**m + j2, j2 * p**m + j1
    V = j1 + j2 * p**m
    R = j2 + j2 * p**m
    for z, letter in ((rp.x, a), (rp.y, b)):
        assert z.preperiod == () and len(z.period) == 2 * m
        assert sum(z.digit(i) * p**i for i in range(2 * m)) == V
        assert z.period[0].center == letter
        assert iterate_chr(s, letter, 2 * m)[R] == letter
    last = 0
    for k in levels:
        block = p ** (2 * m * k)
        D = V * (block - 1) // (p ** (2 * m) - 1)
        t = (j2 - j1) * block
        r = min(D, block - 1 - D)
        assert r > last
        last = r
        for z in (rp.x, rp.y):
            w = z.expand(t + r)
            # x(-r .. r) sits at t + r in the window, x(t - r .. t + r) at 2t + r
            assert w[t : t + 2 * r + 1] == w[2 * t : 2 * t + 2 * r + 1], (s.rules(), k)
    return squared


def zip_pair_word(subst, left, right):
    """Encode two equal-length internal words as one internal pair-word."""
    if len(left) != len(right):
        raise PreconditionError("pair words need equal projections")
    n = subst.size
    return "".join(chr(ord(a) * n + ord(b)) for a, b in zip(left, right))


def count_occurrences(haystack, needle):
    """Occurrences of ``needle`` in ``haystack`` (overlaps allowed)."""
    count = 0
    i = haystack.find(needle)
    while i >= 0:
        count += 1
        i = haystack.find(needle, i + 1)
    return count


def recurrence_check(x, y, letters, depth):
    """For every radius up to ``depth``, look for the centered pair window
    inside the aligned even-power images of the reference letters; true
    when every radius succeeds.

    One occurrence is always the window's own image (the iterated image of
    the central column reproduces it), so recurrence evidence demands a
    second, genuinely different occurrence.
    """
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    s = x.subst
    a, b = letters
    ac = chr(s.index(a))
    bc = chr(s.index(b))
    pair_images = []
    for m in range(1, depth + 1):
        wa = iterate_chr(s, ac, 2 * m)
        wb = iterate_chr(s, bc, 2 * m)
        pair_images.append(zip_pair_word(s, wa, wb))
    for n in range(1, depth + 1):
        needle = zip_pair_word(s, x.expand(n), y.expand(n))
        if not any(count_occurrences(w, needle) >= 2 for w in pair_images):
            return False
    return True


# ---------------------------------------------------------------------------
# per-step reference for the simulator


def stepwise_empirical_class(x, y, horizon, window=DEFAULT_WINDOW, budget=DEFAULT_WORD_BUDGET):
    """Reference for ``simulate.empirical_class``: scan forward times
    0..horizon one by one and report the observed metric behavior of the
    pair."""
    if horizon < 0 or window < 1:
        raise PreconditionError("horizon must be >= 0 and window >= 1")
    radius = horizon + window
    xw = x.expand(radius, budget)
    yw = y.expand(radius, budget)
    mid = radius
    diffs = [i - mid for i in range(len(xw)) if xw[i] != yw[i]]
    prox = []
    prox_count = 0
    seps = []
    sep_count = 0
    min_radius = window
    max_radius = 0
    for n in range(horizon + 1):
        pos = bisect_left(diffs, n)
        nearest = window
        if pos < len(diffs):
            nearest = min(nearest, abs(diffs[pos] - n))
        if pos > 0:
            nearest = min(nearest, abs(diffs[pos - 1] - n))
        r = nearest
        min_radius = min(min_radius, r)
        max_radius = max(max_radius, r)
        if r >= window:
            prox_count += 1
            if len(prox) < EVENT_CAP:
                prox.append(n)
        if r == 0:
            sep_count += 1
            if len(seps) < EVENT_CAP:
                seps.append(n)
    last_sep = None
    if sep_count:
        sep_positions = [d for d in diffs if 0 <= d <= horizon]
        last_sep = sep_positions[-1] if sep_positions else None
    return EvidenceReport(
        horizon=horizon,
        window=window,
        proximality_events=tuple(prox),
        proximality_count=prox_count,
        separation_events=tuple(seps),
        separation_count=sep_count,
        last_separation=last_sep,
        max_last_difference=diffs[-1] if diffs else None,
        min_distance=2.0 ** (-max_radius),
        max_distance=2.0 ** (-min_radius),
    )


def agreement_radius(x_window, y_window, time, window_cap, center=None):
    """Smallest |i| <= cap with the windows differing at ``time + i``;
    the cap itself when they agree on the whole stretch.  Both windows
    must cover ``time - cap .. time + cap`` around their center index."""
    if len(x_window) != len(y_window):
        raise PreconditionError("windows must have equal length")
    mid = (len(x_window) - 1) // 2 if center is None else center
    lo = mid + time - window_cap
    hi = mid + time + window_cap
    if lo < 0 or hi >= len(x_window):
        raise PreconditionError("windows do not cover the requested time")
    if x_window[lo : hi + 1] == y_window[lo : hi + 1]:
        return window_cap
    if x_window[mid + time] != y_window[mid + time]:
        return 0
    for r in range(1, window_cap + 1):
        if (
            x_window[mid + time - r] != y_window[mid + time - r]
            or x_window[mid + time + r] != y_window[mid + time + r]
        ):
            return r
    return window_cap


def radius_samples(x, y, horizon, window=DEFAULT_WINDOW, budget=DEFAULT_WORD_BUDGET):
    """(time, agreement radius) samples for CSV export."""
    return _radii(_difference_flags(x, y, horizon, window, budget), horizon, window)


# ---------------------------------------------------------------------------
# reference window expansion: the point rebuilt bottom-up, one level piece
# at a time, left and right of the center walked separately


def _prefix_of_iterate(subst, chrword, count, length):
    """Prefix of length <= ``length`` of the ``count``-fold image."""
    if length <= 0:
        return ""
    w = chrword[:length]
    for _ in range(count):
        w = subst.apply(w)[:length]
    return w


def _suffix_of_iterate(subst, chrword, count, length):
    """Suffix of length <= ``length`` of the ``count``-fold image."""
    if length <= 0:
        return ""
    w = chrword[-length:]
    for _ in range(count):
        w = subst.apply(w)[-length:]
    return w


def _seed_exponent(subst, anchor, cycle, minimum):
    """Smallest exponent congruent to ``anchor`` mod ``cycle`` whose image
    length covers ``minimum`` (positive so at least one image is taken)."""
    p = subst.constant_length
    e = anchor if anchor > 0 else cycle
    while p**e < minimum:
        e += cycle
    return e


def _stepwise_right(point, need, budget):
    s = point.subst
    k = len(point.preperiod)
    L = len(point.period)
    out = [point.entry(0).center]
    have = 1
    if point.right_seed is None:
        i = 0
        cap = k + L * (need.bit_length() + 4)
        while have < need:
            suffix = point.entry(i).suffix
            if suffix:
                piece = _prefix_of_iterate(s, suffix, i, need - have)
                out.append(piece)
                have += len(piece)
            i += 1
            if i > cap:
                raise BudgetExceededError("right expansion is not growing")
    else:
        for i in range(k):
            suffix = point.entry(i).suffix
            if suffix:
                total = len(suffix) * (s.constant_length**i)
                if total > budget:
                    raise BudgetExceededError("right expansion exceeds the word budget")
                out.append(iterate_chr(s, suffix, i, budget))
                have += total
        rest = need - have
        if rest > 0:
            d = point.right_seed
            cyc = cycle_length(first_letter_map(s), ord(d))
            e = _seed_exponent(s, k, cyc, rest)
            out.append(_prefix_of_iterate(s, d, e, rest))
    return "".join(out)[:need]


def _stepwise_left(point, need, budget):
    if need == 0:
        return ""
    s = point.subst
    k = len(point.preperiod)
    L = len(point.period)
    out = []
    have = 0
    if point.left_seed is None:
        i = 0
        cap = k + L * (need.bit_length() + 4)
        while have < need:
            prefix = point.entry(i).prefix
            if prefix:
                piece = _suffix_of_iterate(s, prefix, i, need - have)
                out.append(piece)
                have += len(piece)
            i += 1
            if i > cap:
                raise BudgetExceededError("left expansion is not growing")
    else:
        for i in range(k):
            prefix = point.entry(i).prefix
            if prefix:
                total = len(prefix) * (s.constant_length**i)
                if total > budget:
                    raise BudgetExceededError("left expansion exceeds the word budget")
                out.append(iterate_chr(s, prefix, i, budget))
                have += total
        rest = need - have
        if rest > 0:
            c = point.left_seed
            cyc = cycle_length(last_letter_map(s), ord(c))
            e = _seed_exponent(s, k, cyc, rest)
            out.append(_suffix_of_iterate(s, c, e, rest))
    return "".join(reversed(out))[-need:]


def stepwise_window(point, radius, budget=DEFAULT_WORD_BUDGET):
    """Reference for ``RepresentedPoint.expand``: the window
    ``x(-radius .. radius)`` of ``point``, built bottom-up.
    The left part adds, level by level, the iterated images of the
    prefixes (the left seed's tail past the preperiod), and the right part
    the iterated images of the suffixes.  With a seed every preperiod
    level is expanded in full, so it raises ``BudgetExceededError`` where
    one of them exceeds ``budget``; without one, where a side stops
    growing within its level cap."""
    return _stepwise_left(point, radius, budget) + _stepwise_right(
        point, radius + 1, budget
    )


# ---------------------------------------------------------------------------
# reference simplifiability search: the depth-first walk over every size
# below |A|, without the lower bounds of reduction.is_simplifiable


def unpruned_simplification(subst, budget=reduction.SIMPLIFIABILITY_BUDGET):
    """``(simplification or None, candidates spent)`` from the plain
    depth-first walk over dictionaries of at most 1, 2, ..., |A| - 1 words,
    charging one candidate per node as ``reduction.is_simplifiable`` does;
    raises ``SearchBudgetError`` past ``budget`` candidates."""
    images = subst.images
    spent = 0

    def walk(size, img_idx, pos, dictionary, segs, seg):
        nonlocal spent
        spent += 1
        if spent > budget:
            raise SearchBudgetError("simplifiability search exceeded its candidate budget")
        if img_idx == len(images):
            return dictionary, segs
        image = images[img_idx]
        if pos == len(image):
            return walk(size, img_idx + 1, 0, dictionary, segs + [seg], [])
        rest = image[pos:]
        for widx, w in enumerate(dictionary):
            if rest.startswith(w):
                hit = walk(size, img_idx, pos + len(w), dictionary, segs, seg + [widx])
                if hit is not None:
                    return hit
        if len(dictionary) < size:
            for ln in range(1, len(rest) + 1):
                w = rest[:ln]
                if w in dictionary:
                    continue
                hit = walk(
                    size, img_idx, pos + ln, dictionary + [w], segs, seg + [len(dictionary)]
                )
                if hit is not None:
                    return hit
        return None

    for size in range(1, subst.size):
        hit = walk(size, 0, 0, [], [], [])
        if hit is not None:
            dictionary, segs = hit
            target = tuple(str(i) for i in range(len(dictionary)))
            f = tuple(tuple(target[idx] for idx in seg) for seg in segs)
            return reduction.Simplification(target, f, tuple(dictionary)), spent
    return None, spent


def counted_simplification(subst, budget=reduction.SIMPLIFIABILITY_BUDGET):
    """``is_simplifiable(subst, budget)`` and the number of candidates it
    spent."""
    budgets = []

    class CountingBudget(reduction._Budget):
        __slots__ = ("spent",)

        def __init__(self, left):
            super().__init__(left)
            self.spent = 0
            budgets.append(self)

        def spend(self):
            self.spent += 1
            super().spend()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction, "_Budget", CountingBudget)
        result = reduction.is_simplifiable(subst, budget)
    (counter,) = budgets
    return result, counter.spent


def rational_rank(subst):
    """The rank over the rationals of the incidence matrix of ``subst``
    (exact Gaussian elimination on the images' letter counts)."""
    rows = [[Fraction(image.count(chr(i))) for i in range(subst.size)] for image in subst.images]
    rank = 0
    for col in range(subst.size):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def composed_substitutions(count, seed=CORPUS_SEED + 3):
    """``count`` substitutions ``g . f`` through an alphabet of 1 to
    |A| - 1 letters, simplifiable by construction: ``f`` sends each of
    |A| <= 6 letters to 1-3 letters, ``g`` each target letter to 1-3
    letters of A (deterministic seed)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        alphabet = tuple("abcdef"[: rng.randint(2, 6)])
        g = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, len(alphabet) - 1))
        ]
        rules = {
            tok: "".join(rng.choice(g) for _ in range(rng.randint(1, 3))) for tok in alphabet
        }
        out.append(Substitution.from_rules(rules, alphabet))
    return out


def anagram_substitutions(count, seed=CORPUS_SEED + 4):
    """``count`` constant-length substitutions, |A| 2-6 letters and length
    2-5, in which the last image and about 40 % of the others rearrange
    the letters of an earlier image, so the incidence matrix has rank
    below |A| (deterministic seed)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, p = rng.randint(2, 6), rng.randint(2, 5)
        alphabet = tuple("abcdef"[:n])
        images = []
        for i in range(n):
            if i and (i == n - 1 or rng.random() < 0.4):
                image = list(rng.choice(images))
                rng.shuffle(image)
            else:
                image = [rng.choice(alphabet) for _ in range(p)]
            images.append("".join(image))
        out.append(Substitution.from_rules(dict(zip(alphabet, images)), alphabet))
    return out


# ---------------------------------------------------------------------------
# reference pair engines on tuple-keyed letter pairs built here from the
# images: per target, the existence search and the double-occurrence
# fixpoint run until their global state repeats, and the orbit list from a
# walk over every simple cycle of letter pairs


@lru_cache(maxsize=None)
def pair_tables(subst):
    """Letter pairs (i, j) in alphabet order, the pair image of each as a
    list of pairs, and per pair the list of (parent pair, position)
    occurrences in (parent, position) order."""
    n = subst.size
    pairs = [(i, j) for i in range(n) for j in range(n)]
    image = {}
    occurrences = {q: [] for q in pairs}
    for P in pairs:
        u, v = subst.images[P[0]], subst.images[P[1]]
        image[P] = [(ord(a), ord(b)) for a, b in zip(u, v)]
        for t, q in enumerate(image[P]):
            occurrences[q].append((P, t))
    return pairs, image, occurrences


@lru_cache(maxsize=None)
def coincidence_chain(subst):
    """coin_0 ⊂ coin_1 ⊂ ... ⊂ C∞ by rescanning every pair per round:
    coin_0 is the diagonal and coin_(m+1) the pairs whose pair image holds
    a member of coin_m; the tuple ends at the first repeat."""
    pairs, image, _ = pair_tables(subst)
    chain = [frozenset(q for q in pairs if q[0] == q[1])]
    while True:
        grown = frozenset(q for q in pairs if any(r in chain[-1] for r in image[q]))
        if grown == chain[-1]:
            return tuple(chain)
        chain.append(grown)


def reference_ly_levels(subst, target):
    """The levels of the existence search at a target pair (i, j), with
    tuple keys ``(pair, coincidence flag, difference flag)``: each label
    is sliced from the pair image and tested against ``coin_level``."""
    _, image, occurrences = pair_tables(subst)
    chain = coincidence_chain(subst)
    last = len(chain) - 1
    state = {(target, False, False): None}
    yield state
    for level in itertools.count():
        coin = chain[min(level, last)]
        new_state = {}
        for key in sorted(state):
            q, fc, fd = key
            for parent, t in occurrences[q]:
                local = image[parent][t + 1 :]
                nfc = fc or any(r in coin for r in local)
                nfd = fd or any(r[0] != r[1] for r in local)
                new_state.setdefault((parent, nfc, nfd), (key, t))
        yield new_state
        state = new_state


def stopped_ly_hit(subst, target):
    """Reference for the search of ``pairs.ly_witness`` at one target pair
    (i, j): ``(level, chain)`` of its first hit, or None once the global
    state of ``reference_ly_levels`` repeats.  Past the last level of the
    coincidence chain every level steps alike, so a repeat before the hit
    means no hit."""
    last = len(coincidence_chain(subst)) - 1
    hit = (target, True, True)
    levels, seen = [], set()
    for level, state in enumerate(reference_ly_levels(subst, target)):
        levels.append(state)
        if hit in state:
            return level, _reconstruct_chain(levels, hit)
        sig = (frozenset(state), min(level, last))
        if sig in seen:
            return None
        seen.add(sig)


def double_engine(subst, target):
    """Minimal level at which the target occurs at least twice (aligned)
    inside its own iterated pair image with a diagonal position after the
    first occurrence; deterministic vector iteration with cycle stop."""
    pairs, image, _ = pair_tables(subst)
    chain = coincidence_chain(subst)
    last = len(chain) - 1
    count = {q: (1 if q == target else 0) for q in pairs}
    daf = {q: False for q in pairs}
    seen = set()
    for level in itertools.count(1):
        coin = chain[min(level - 1, last)]
        new_count = {}
        new_daf = {}
        for q in pairs:
            letters = image[q]
            new_count[q] = min(2, sum(count[r] for r in letters))
            flag = False
            for t, r in enumerate(letters):
                if count[r] >= 1:
                    flag = daf[r] or any(x in coin for x in letters[t + 1 :])
                    break
            new_daf[q] = flag
        count, daf = new_count, new_daf
        if count[target] >= 2 and daf[target]:
            return level
        sig = (tuple(sorted(count.items())), tuple(sorted(daf.items())), min(level, last))
        if sig in seen:
            return None
        seen.add(sig)


def engine_uncountable_certificate(subst):
    """Reference for ``pairs.uncountable_certificate``: the first target
    (i, j), i < j, at which ``double_engine`` hits, and the two
    occurrences read from the words at that level."""
    n = subst.size
    levels = ((q, double_engine(subst, q)) for q in itertools.combinations(range(n), 2))
    found = next(((q, level) for q, level in levels if level is not None), None)
    if found is None:
        return None
    (ai, bi), level = found
    if subst.constant_length**level > CERTIFICATE_WORD_CAP:
        raise BudgetExceededError(f"certificate words at power {level} exceed the word cap")
    ua = iterate_chr(subst, chr(ai), level)
    ub = iterate_chr(subst, chr(bi), level)
    hits = [t for t in range(len(ua)) if ua[t] == chr(ai) and ub[t] == chr(bi)]
    coins = [t for t in range(len(ua)) if ua[t] == ub[t]]
    for idx, first in enumerate(hits[:-1]):
        if any(t > first for t in coins):
            return DoubleCertificate(
                power=level,
                a=subst.alphabet[ai],
                b=subst.alphabet[bi],
                first=first,
                second=hits[idx + 1],
            )
    raise InvariantError("double-occurrence engine and word scan disagree")


def walked_ly_orbits(subst):
    """Reference for ``pairs.enumerate_ly_orbits`` on countable input:
    ``(pairs, cycles)``.  It walks every simple cycle of off-diagonal
    letter pairs under the occurrence relation from each start (i, j),
    i < j, on an explicit stack, keeps the cycles whose suffix pairs, coded
    i·n + j, ``_suffix_class`` calls Li-Yorke, and lists one pair per seed
    choice; ``cycles`` counts the simple cycles walked, once per start."""
    _, image, occurrences = pair_tables(subst)
    chains = []
    for q in sorted(occurrences):
        if q[0] >= q[1]:
            continue
        # path[i] is the step (parent, t) into the pair of level i + 1,
        # stack[i] the steps still to try out of the pair of level i
        path, stack = [], [iter(occurrences[q])]
        while stack:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                del path[-1:]
            elif step[0] == q:
                chains.append((*path, step))
            elif step[0][0] != step[0][1] and step[0] not in (r for r, _ in path):
                path.append(step)
                stack.append(iter(occurrences[step[0]]))
    results = []
    for chain in sorted(chains):
        suffixes = [a * subst.size + b for parent, t in chain for a, b in image[parent][t + 1 :]]
        if _suffix_class(subst, suffixes) is not PairClass.LI_YORKE:
            continue
        positions = [t for _, t in chain]
        top = chain[-1][0]
        ex, ey = _chain_entries(subst, (chr(top[0]), chr(top[1])), positions)
        seeds_x = _seed_choices(subst, positions, ex[0].center)
        seeds_y = _seed_choices(subst, positions, ey[0].center)
        for (lx, rx), (ly, ry) in itertools.product(seeds_x, seeds_y):
            x = RepresentedPoint(subst, (), ex, lx, rx)
            y = RepresentedPoint(subst, (), ey, ly, ry)
            results.append((x, y))
    return results, len(chains)
