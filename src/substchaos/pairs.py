"""Exact decision procedures for pairs: coincidence structure, existence
and abundance of Li-Yorke pairs, classification of represented point
pairs, and the explicit pair/scrambled-set constructions.

The existence decisions run a level-synchronous fixpoint over letter
pairs.  A chain records how an occurrence of the target pair inside an
iterated pair-image factors through intermediate letter pairs; the two
flags carried along say whether the word to the right of the occurrence
picks up a coincidence (a diagonal position) and a difference (an
off-diagonal position).  The per-level predicates "the m-fold pair image
of q contains a diagonal / off-diagonal position" evolve as deterministic
boolean vectors, so the whole global state lives in a finite space and
the iteration stops at the first repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import BudgetExceededError, PreconditionError
from .reduction import decide_infinite
from .streams import (
    DesubstitutionStream,
    RepresentedPoint,
    StreamEntry,
    _entry_from_block,
)
from .substitution import (
    Substitution,
    cycle_length,
    is_primitive,
    iterate_chr,
    language_chr,
    last_letter_map,
)

ENGINE_LEVEL_CAP = 4096
CERTIFICATE_WORD_CAP = 10**6


class Coincidence(Enum):
    NO_COINCIDENCE = "no_coincidence"
    PARTIAL = "partial"
    OVERALL = "overall"


@dataclass(frozen=True)
class CoincidenceClass:
    kind: Coincidence
    # per unordered token pair: (coincidence positions, non-coincidence positions)
    witness: tuple[tuple[tuple[str, str], tuple[int, ...], tuple[int, ...]], ...]

    def positions(self, a, b):
        for (x, y), coins, diffs in self.witness:
            if {x, y} == {a, b}:
                return coins, diffs
        raise KeyError((a, b))


def coincidence_class(subst):
    """Position-wise comparison of all image pairs."""
    if subst.constant_length is None:
        raise PreconditionError("coincidence structure needs constant length")
    n = subst.size
    witness = []
    all_have = True
    none_have = True
    for i in range(n):
        for j in range(i + 1, n):
            u, v = subst.images[i], subst.images[j]
            coins = tuple(t for t in range(len(u)) if u[t] == v[t])
            diffs = tuple(t for t in range(len(u)) if u[t] != v[t])
            witness.append(((subst.alphabet[i], subst.alphabet[j]), coins, diffs))
            if coins:
                none_have = False
            else:
                all_have = False
    if all_have:
        kind = Coincidence.OVERALL
    elif none_have:
        kind = Coincidence.NO_COINCIDENCE
    else:
        kind = Coincidence.PARTIAL
    return CoincidenceClass(kind, tuple(witness))


# ---------------------------------------------------------------------------
# the flagged fixpoint engines


def _require_ly_preconditions(subst):
    if subst.constant_length is None:
        raise PreconditionError("Li-Yorke analysis needs constant length")
    if not subst.is_injective():
        raise PreconditionError(
            "Li-Yorke analysis needs a one-to-one substitution (reduce first)"
        )
    if not is_primitive(subst):
        raise PreconditionError("Li-Yorke analysis needs a primitive substitution")
    if not decide_infinite(subst):
        raise PreconditionError("Li-Yorke analysis needs an infinite subshift")


@lru_cache(maxsize=None)
def _pair_tables(subst):
    """Static tables on letter pairs: images of the pair substitution and,
    per pair, the list of (parent pair, position) occurrences."""
    n = subst.size
    pairs = [(i, j) for i in range(n) for j in range(n)]
    image = {}
    occurrences = {q: [] for q in pairs}
    for P in pairs:
        u, v = subst.images[P[0]], subst.images[P[1]]
        img = [(ord(a), ord(b)) for a, b in zip(u, v)]
        image[P] = img
        for t, q in enumerate(img):
            occurrences[q].append((P, t))
    return pairs, image, occurrences


def _coin_diff_start(pairs):
    coin = frozenset(q for q in pairs if q[0] == q[1])
    diff = frozenset(q for q in pairs if q[0] != q[1])
    return coin, diff


def _coin_diff_step(image, pairs, coin, diff):
    new_coin = frozenset(q for q in pairs if any(r in coin for r in image[q]))
    new_diff = frozenset(q for q in pairs if any(r in diff for r in image[q]))
    return new_coin, new_diff


def _ly_engine(subst, target):
    """Minimal level at which the target pair occurs inside its own
    iterated pair image with both a coincidence and a difference after it;
    returns (level, chain bottom-up [(parent, position), ...]) or None."""
    pairs, image, occurrences = _pair_tables(subst)
    coin, diff = _coin_diff_start(pairs)
    state = {(target, False, False): None}
    seen = {}
    for level in range(1, ENGINE_LEVEL_CAP + 1):
        new_state = {}
        for (q, fc, fd) in sorted(state):
            for parent, t in occurrences[q]:
                local = image[parent][t + 1 :]
                nfc = fc or any(r in coin for r in local)
                nfd = fd or any(r in diff for r in local)
                key = (parent, nfc, nfd)
                if key not in new_state:
                    new_state[key] = (q, fc, fd, t)
        coin, diff = _coin_diff_step(image, pairs, coin, diff)
        if (target, True, True) in new_state:
            levels = _engine_backptrs(subst, target, level)
            return level, _reconstruct_chain(levels, (target, True, True))
        sig = (frozenset(new_state), coin, diff)
        if sig in seen:
            return None
        seen[sig] = level
        state = new_state
    raise BudgetExceededError("pair fixpoint failed to cycle within the level cap")


def _engine_backptrs(subst, target, upto):
    """Re-run the engine storing per-level back pointers (kept separate so
    the fast path does not hold every level in memory)."""
    pairs, image, occurrences = _pair_tables(subst)
    coin, diff = _coin_diff_start(pairs)
    state = {(target, False, False): None}
    levels = [dict(state)]
    for _ in range(upto):
        new_state = {}
        for (q, fc, fd) in sorted(state):
            for parent, t in occurrences[q]:
                local = image[parent][t + 1 :]
                nfc = fc or any(r in coin for r in local)
                nfd = fd or any(r in diff for r in local)
                key = (parent, nfc, nfd)
                if key not in new_state:
                    new_state[key] = ((q, fc, fd), t)
        coin, diff = _coin_diff_step(image, pairs, coin, diff)
        levels.append(new_state)
        state = new_state
    return levels


def _reconstruct_chain(levels, key):
    """Walk back pointers from the realized key at the top level down to
    the seeded bottom; returns [(parent pair, position)] per level,
    bottom transition first."""
    chain = []
    for level in range(len(levels) - 1, 0, -1):
        prev, t = levels[level][key]
        chain.append((key[0], t))
        key = prev
    chain.reverse()
    return chain


@lru_cache(maxsize=None)
def ly_witness(subst):
    """First (in alphabet order of targets) minimal witness for the
    Li-Yorke existence criterion, or None.  The chain is a tuple, so the
    memoised witness is shared read-only."""
    _require_ly_preconditions(subst)
    n = subst.size
    for i in range(n):
        for j in range(i + 1, n):
            hit = _ly_engine(subst, (i, j))
            if hit is not None:
                level, chain = hit
                return (i, j), level, tuple(chain)
    return None


def has_ly_pairs(subst):
    """Existence of Li-Yorke pairs: some power of the substitution maps a
    letter pair onto aligned occurrences of itself followed by both a
    coincidence and a difference."""
    return ly_witness(subst) is not None


def _double_engine(subst, target):
    """Minimal level at which the target occurs at least twice (aligned)
    inside its own iterated pair image with a diagonal position after the
    first occurrence; deterministic vector iteration with cycle stop."""
    pairs, image, _ = _pair_tables(subst)
    coin, _diff = _coin_diff_start(pairs)
    count = {q: (1 if q == target else 0) for q in pairs}
    daf = {q: False for q in pairs}
    seen = {}
    for level in range(1, ENGINE_LEVEL_CAP + 1):
        new_count = {}
        new_daf = {}
        for q in pairs:
            letters = image[q]
            total = sum(count[r] for r in letters)
            new_count[q] = min(2, total)
            flag = False
            for t, r in enumerate(letters):
                if count[r] >= 1:
                    flag = daf[r] or any(x in coin for x in letters[t + 1 :])
                    break
            new_daf[q] = flag
        coin = frozenset(q for q in pairs if any(r in coin for r in image[q]))
        count, daf = new_count, new_daf
        if count[target] >= 2 and daf[target]:
            return level
        sig = (tuple(sorted(count.items())), tuple(sorted(daf.items())), coin)
        if sig in seen:
            return None
        seen[sig] = level
    raise BudgetExceededError("double-occurrence fixpoint failed to cycle")


def uncountable_witness(subst):
    _require_ly_preconditions(subst)
    n = subst.size
    for i in range(n):
        for j in range(i + 1, n):
            level = _double_engine(subst, (i, j))
            if level is not None:
                return (i, j), level
    return None


@lru_cache(maxsize=None)
def has_uncountable_ly(subst):
    """Uncountably many Li-Yorke pairs: some power maps a letter pair onto
    two aligned occurrences of itself with a coincidence after the first."""
    return uncountable_witness(subst) is not None


def has_strong_ly(subst):
    """Existence of a recurrent (strong) Li-Yorke pair; equivalent to the
    uncountability condition."""
    return has_uncountable_ly(subst)


STRONG_EQUIVALENCE_CHAIN = (
    "uncountably-many-li-yorke-pairs",
    "infinitely-many-li-yorke-orbits",
    "a-strong-li-yorke-pair-exists",
    "uncountably-many-strong-li-yorke-orbits",
    "double-occurrence-with-coincidence",
)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class LyCertificate:
    """Witness for the existence criterion: at ``power`` applications the
    letters ``a`` and ``b`` reoccur aligned at position ``position`` with
    suffix words ``v``/``v2`` that differ and share a coincidence."""

    power: int
    a: str
    b: str
    position: int
    u: str
    v: str
    u2: str
    v2: str

    def to_json(self):
        def word(w):
            return w if isinstance(w, str) else list(w)

        return {
            "m": self.power,
            "a": self.a,
            "b": self.b,
            "u": word(self.u),
            "v": word(self.v),
            "u2": word(self.u2),
            "v2": word(self.v2),
        }


def li_yorke_certificate(subst, word_cap=CERTIFICATE_WORD_CAP):
    wit = ly_witness(subst)
    if wit is None:
        return None
    (ai, bi), level, chain = wit
    p = subst.constant_length
    if p**level > word_cap:
        raise BudgetExceededError(
            f"certificate words at power {level} exceed the word cap"
        )
    ua = iterate_chr(subst, chr(ai), level)
    ub = iterate_chr(subst, chr(bi), level)
    position = sum(t * p**i for i, (_, t) in enumerate(chain))
    dec = subst.decode
    return LyCertificate(
        power=level,
        a=subst.alphabet[ai],
        b=subst.alphabet[bi],
        position=position,
        u=dec(ua[:position]),
        v=dec(ua[position + 1 :]),
        u2=dec(ub[:position]),
        v2=dec(ub[position + 1 :]),
    )


@dataclass(frozen=True)
class DoubleCertificate:
    """Witness for the uncountability condition: two aligned occurrences
    of (a, b) at ``first``/``second`` inside the ``power``-fold images,
    with a coincidence after the first."""

    power: int
    a: str
    b: str
    first: int
    second: int


def uncountable_certificate(subst, word_cap=CERTIFICATE_WORD_CAP):
    wit = uncountable_witness(subst)
    if wit is None:
        return None
    (ai, bi), level = wit
    p = subst.constant_length
    if p**level > word_cap:
        raise BudgetExceededError(
            f"certificate words at power {level} exceed the word cap"
        )
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
    raise AssertionError("double-occurrence engine and word scan disagree")


# ---------------------------------------------------------------------------
# classification of represented point pairs


class PairClass(Enum):
    DISTAL = "Distal"
    ASYMPTOTIC = "Asymptotic"
    LI_YORKE = "LiYorke"
    PROXIMAL_NOT_CLASSIFIED = "ProximalNotClassified"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class PairVerdict:
    kind: PairClass
    rule: str
    strong: bool | None = None
    evidence: object = None

    def to_json(self):
        return {
            "class": self.kind.value,
            "rule": self.rule,
            "strong": self.strong,
            "evidence": None if self.evidence is None else self.evidence.to_json(),
        }


def _aligned_entries(x, y):
    """Common (preperiod length, period length) view of two same-digit
    streams; returns (k, L, entries_x, entries_y) with entries covering
    levels 0 .. k+L-1."""
    sx, sy = x.stream, y.stream
    k = max(len(sx.preperiod), len(sy.preperiod))
    L = math.lcm(len(sx.period), len(sy.period))
    ex = [sx.entry(i) for i in range(k + L)]
    ey = [sy.entry(i) for i in range(k + L)]
    return k, L, ex, ey


def _k_plus(stream):
    """Number of forward steps after which the finite right side of an
    eventually-(p-1)-digit point is exhausted."""
    p = stream.subst.constant_length
    k = len(stream.preperiod)
    return 1 + sum(
        (p - 1 - stream.digit(i)) * p**i for i in range(k)
    )


def classify_pair(x, y, evidence_horizon=6561, evidence_window=16):
    """Exact classification of a represented pair.

    Points over different fibers are distal.  Within a fiber the suffix
    data decides: eventual suffix agreement means asymptotic; with overall
    coincidences a recurrent suffix difference means Li-Yorke; with no
    coincidences a difference at a valid coordinate means distal.  Pairs
    of a partial-coincidence substitution outside these rules are reported
    unresolved, with simulator evidence attached, never guessed.
    """
    from .simulate import empirical_class  # local import to avoid a cycle

    if x.subst != y.subst:
        raise PreconditionError("points live over different substitutions")
    s = x.subst
    _require_ly_preconditions(s)
    if x.odometer_digits() != y.odometer_digits():
        return PairVerdict(PairClass.DISTAL, "distinct-odometer-digits")
    if x == y:
        return PairVerdict(PairClass.ASYMPTOTIC, "identical-representation")
    p = s.constant_length
    if x.odometer_digits().is_constant(p - 1):
        # finite forward data: advance both points past it first
        steps = _k_plus(x.stream)
        x = x.shift_by(steps)
        y = y.shift_by(steps)
    k, L, ex, ey = _aligned_entries(x, y)
    period_same_suffix = all(
        ex[k + j].suffix == ey[k + j].suffix for j in range(L)
    )
    if period_same_suffix:
        return PairVerdict(PairClass.ASYMPTOTIC, "eventual-suffix-equality")
    cls = coincidence_class(s)
    if cls.kind == Coincidence.OVERALL:
        strong = True if (s.size == 2 and has_uncountable_ly(s)) else None
        return PairVerdict(
            PairClass.LI_YORKE, "overall-coincidence-recurrent-difference", strong
        )
    if cls.kind == Coincidence.NO_COINCIDENCE:
        for e1, e2 in zip(ex, ey):
            zipped = zip(e1.block, e2.block)
            if any(a != b for a, b in zipped):
                return PairVerdict(PairClass.DISTAL, "no-coincidence-separation")
        return PairVerdict(PairClass.ASYMPTOTIC, "no-coincidence-agreement")
    evidence = empirical_class(x, y, evidence_horizon, evidence_window)
    return PairVerdict(
        PairClass.UNRESOLVED, "partial-coincidence-undecided", evidence=evidence
    )


def classify_pair_two_letter(x, y):
    """Two-letter shortcut: with a coincidence the pair is Li-Yorke exactly
    when suffixes differ at infinitely many levels, otherwise asymptotic;
    without coincidences a difference at a valid coordinate means distal.
    Used as a cross-check against the general path."""
    s = x.subst
    if s.size != 2:
        raise PreconditionError("shortcut only applies to two-letter alphabets")
    _require_ly_preconditions(s)
    if x.odometer_digits() != y.odometer_digits():
        return PairVerdict(PairClass.DISTAL, "two-letter-distinct-digits")
    if x == y:
        return PairVerdict(PairClass.ASYMPTOTIC, "two-letter-identical")
    p = s.constant_length
    if x.odometer_digits().is_constant(p - 1):
        steps = _k_plus(x.stream)
        x = x.shift_by(steps)
        y = y.shift_by(steps)
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


# ---------------------------------------------------------------------------
# constructions


@dataclass(frozen=True)
class ConstructedPair:
    x: RepresentedPoint
    y: RepresentedPoint
    letters: tuple[str, str]
    certificate: object


def _chain_entries(subst, top_letters, positions):
    """Entries of the level chain of an occurrence: walk the digit list of
    the position down from ``top_letters``; returns (entries low..high for
    each side, bottom letters)."""
    s = subst
    ex, ey = [], []
    ca, cb = top_letters
    for t in reversed(positions):
        block_a = s.images[ord(ca)]
        block_b = s.images[ord(cb)]
        ex.append(_entry_from_block(block_a, t))
        ey.append(_entry_from_block(block_b, t))
        ca, cb = block_a[t], block_b[t]
    ex.reverse()
    ey.reverse()
    return ex, ey, (ca, cb)


def _lambda_periodic_predecessor(subst, letter_chr, power):
    """A letter c on a cycle of the last-letter map with ``c letter`` in
    the language: follow the last-letter map of the iterated substitution
    from any predecessor until it lands on a cycle."""
    s = subst
    lang2 = language_chr(s, 2)
    lam = last_letter_map(s)
    preds = [chr(c) for c in range(s.size) if chr(c) + letter_chr in lang2]
    if not preds:
        raise PreconditionError("letter has no predecessor in the language")
    c = preds[0]
    for _ in range(2 * s.size):
        if cycle_length(lam, ord(c)) is not None:
            assert c + letter_chr in lang2
            return c
        for _ in range(power):
            c = chr(lam[ord(c)])
    raise AssertionError("no periodic predecessor found")


def construct_ly_pair(subst):
    """The explicit Li-Yorke pair built from the existence witness: both
    points repeat the witness chain; when the occurrence sits at position
    zero the left tails come from periodic predecessor letters."""
    wit = ly_witness(subst)
    if wit is None:
        raise PreconditionError("the substitution has no Li-Yorke pairs")
    (ai, bi), level, chain = wit
    positions = [t for _, t in chain]
    s = subst
    a, b = chr(ai), chr(bi)
    cert = li_yorke_certificate(s)
    if any(positions):
        ex, ey, bottom = _chain_entries(s, (a, b), positions)
        assert bottom == (a, b)
        x = RepresentedPoint(DesubstitutionStream(s, (), tuple(ex), None, None))
        y = RepresentedPoint(DesubstitutionStream(s, (), tuple(ey), None, None))
    else:
        ex, ey, bottom = _chain_entries(s, (a, b), positions)
        assert bottom == (a, b)
        cseed = _lambda_periodic_predecessor(s, a, level)
        dseed = _lambda_periodic_predecessor(s, b, level)
        x = RepresentedPoint(DesubstitutionStream(s, (), tuple(ex), cseed, None))
        y = RepresentedPoint(DesubstitutionStream(s, (), tuple(ey), dseed, None))
    return ConstructedPair(x, y, (s.alphabet[ai], s.alphabet[bi]), cert)


def construct_recurrent_ly_pair(subst):
    """The recurrent Li-Yorke pair from the double-occurrence witness.

    The witness is squared if needed so both occurrences have nonempty
    words on each side; the points then alternate between the two
    occurrence positions, which makes every centered window reappear in
    the iterated images of the witness letters."""
    if not has_uncountable_ly(subst):
        raise PreconditionError("recurrent pair needs the double-occurrence condition")
    cert = uncountable_certificate(subst)
    s = subst
    p = s.constant_length
    ai, bi = s.index(cert.a), s.index(cert.b)
    a, b = chr(ai), chr(bi)
    m, j1, j2 = cert.power, cert.first, cert.second
    if j1 == 0 or j2 == p**m - 1:
        # square the witness: inside the doubled image the occurrence of
        # the first copy within the second block and vice versa are both
        # interior, and a coincidence still follows the first of them
        m, j1, j2 = 2 * m, j1 * p**cert.power + j2, j2 * p**cert.power + j1
    digits1 = [(j1 // p**i) % p for i in range(m)]
    digits2 = [(j2 // p**i) % p for i in range(m)]
    ex1, ey1, bottom1 = _chain_entries(s, (a, b), digits1)
    assert bottom1 == (a, b)
    ex2, ey2, bottom2 = _chain_entries(s, (a, b), digits2)
    assert bottom2 == (a, b)
    x = RepresentedPoint(DesubstitutionStream(s, (), tuple(ex1 + ex2), None, None))
    y = RepresentedPoint(DesubstitutionStream(s, (), tuple(ey1 + ey2), None, None))
    return ConstructedPair(x, y, (cert.a, cert.b), cert)


# ---------------------------------------------------------------------------
# enumeration of Li-Yorke orbit representatives


def enumerate_ly_orbits(subst, period_bound=None, require_countable=True):
    """Representatives of the Li-Yorke pair orbits when there are only
    finitely many of them.

    Every such pair is in the orbit of one whose joint level data is
    purely periodic with period at most ``|A|^2 + 1``, so closed chains of
    letter pairs up to that length enumerate all candidates; classified
    pairs are deduplicated by their expansion windows.
    """
    _require_ly_preconditions(subst)
    if has_uncountable_ly(subst):
        if require_countable:
            raise PreconditionError(
                "enumeration refused: the substitution has uncountably many "
                "Li-Yorke pairs"
            )
    elif not has_ly_pairs(subst):
        return []
    s = subst
    n = s.size
    p = s.constant_length
    bound = period_bound if period_bound is not None else n * n + 1
    pairs, image, occurrences = _pair_tables(s)

    cycles = set()

    def walk(start, node, path):
        # path: list of (parent, t) steps taken upward from `start`
        if path and node == start:
            cyc = tuple(path)
            rotations = [cyc[i:] + cyc[:i] for i in range(len(cyc))]
            cycles.add(min(rotations))
        if len(path) >= bound:
            return
        for parent, t in occurrences[node]:
            if parent[0] == parent[1]:
                continue
            walk(start, parent, path + [(parent, t)])

    for q in sorted(pairs):
        if q[0] != q[1]:
            walk(q, q, [])

    results = []
    seen_windows = set()
    dedup_radius = min(2 * p**bound, 1 << 22)
    for cyc in sorted(cycles):
        positions = [t for _, t in cyc]
        top = cyc[-1][0]
        ex, ey, bottom = _chain_entries(s, (chr(top[0]), chr(top[1])), positions)
        assert (ord(bottom[0]), ord(bottom[1])) == top
        digits = positions
        if all(d == 0 for d in digits):
            anchor_x, anchor_y = ex[0].center, ey[0].center
            from .streams import _admissible_left_seeds

            seed_combos = [
                (cx, cy, None, None)
                for cx in _admissible_left_seeds(s, anchor_x)
                for cy in _admissible_left_seeds(s, anchor_y)
            ]
        elif all(d == p - 1 for d in digits):
            anchor_x, anchor_y = ex[0].center, ey[0].center
            from .streams import _admissible_right_seeds

            seed_combos = [
                (None, None, dx, dy)
                for dx in _admissible_right_seeds(s, anchor_x)
                for dy in _admissible_right_seeds(s, anchor_y)
            ]
        else:
            seed_combos = [(None, None, None, None)]
        for lx, ly_, rx, ry in seed_combos:
            try:
                x = RepresentedPoint(DesubstitutionStream(s, (), tuple(ex), lx, rx))
                y = RepresentedPoint(DesubstitutionStream(s, (), tuple(ey), ly_, ry))
            except Exception:
                continue
            if x == y:
                continue
            verdict = classify_pair(x, y)
            if verdict.kind is not PairClass.LI_YORKE:
                continue
            wx = x.expand(dedup_radius)
            wy = y.expand(dedup_radius)
            key = frozenset((wx, wy))
            if key in seen_windows:
                continue
            seen_windows.add(key)
            results.append((x, y))
    return results


# ---------------------------------------------------------------------------
# scrambled sets of any finite size


def build_scrambled_set(size_parameter):
    """A substitution on ``size_parameter + 1`` letters together with
    points forming a scrambled set of that cardinality: every image is
    ``0 a a (a+1) 0`` and the points track the repeated middle letter."""
    if size_parameter < 1:
        raise PreconditionError("size parameter must be >= 1")
    n = size_parameter
    alphabet = tuple(str(i) for i in range(n + 1))
    rules = {}
    for a in range(n + 1):
        succ = (a + 1) % (n + 1)
        rules[str(a)] = [str(0), str(a), str(a), str(succ), str(0)]
    s = Substitution.from_rules(rules, alphabet)
    points = []
    for a in range(n + 1):
        succ = (a + 1) % (n + 1)
        entry = StreamEntry(
            chr(0), chr(a), chr(a) + chr(succ) + chr(0)
        )
        points.append(
            RepresentedPoint(DesubstitutionStream(s, (), (entry,), None, None))
        )
    return s, points
