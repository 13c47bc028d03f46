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

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .errors import BudgetExceededError, InvariantError, PreconditionError
from .streams import (
    DesubstitutionStream,
    RepresentedPoint,
    StreamEntry,
    _entries_below,
    _past_right_end,
    _require_recognizable,
    _seed_choices,
)
from .substitution import (
    Substitution,
    cycle_length,
    iterate_chr,
    language_chr,
    last_letter_map,
    memoised,
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


# ---------------------------------------------------------------------------
# the flagged fixpoint engines


@memoised
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


def _coin_step(image, pairs, coin):
    """The pairs whose pair image holds a member of ``coin``."""
    return frozenset(q for q in pairs if any(r in coin for r in image[q]))


@memoised
def _coincidence_chain(subst):
    """coin_0 ⊂ coin_1 ⊂ ... ⊂ C∞: coin_0 is the diagonal and coin_(m+1)
    the pairs whose pair image holds a member of coin_m, so coin_m holds
    the pairs whose m-fold pair image holds a diagonal pair.  Diagonal
    pairs map to diagonal pairs, so the sets only grow; the tuple ends at
    the first repeat, C∞, the least set that holds the diagonal and every
    pair whose pair image holds a member (within |A|^2 rounds).  Level m
    of an engine reads ``chain[min(m, len(chain) - 1)]``."""
    pairs, image, _ = _pair_tables(subst)
    chain = [frozenset(q for q in pairs if q[0] == q[1])]
    while (grown := _coin_step(image, pairs, chain[-1])) != chain[-1]:
        chain.append(grown)
    return tuple(chain)


@memoised
def coincidence_class(subst):
    """Position-wise comparison of all image pairs, read off the
    coincidence chain: ``coin_1`` holds the letter pairs whose images
    agree at some position (and the diagonal).  Overall when that is every
    pair, none when it is only the diagonal (the chain stops at once)."""
    if subst.constant_length is None:
        raise PreconditionError("coincidence structure needs constant length")
    chain = _coincidence_chain(subst)
    if len(chain[min(1, len(chain) - 1)]) == subst.size**2:
        return CoincidenceClass(Coincidence.OVERALL)
    if len(chain) == 1:
        return CoincidenceClass(Coincidence.NO_COINCIDENCE)
    return CoincidenceClass(Coincidence.PARTIAL)


def _ly_levels(subst, target):
    """The levels of the existence fixpoint started at the target pair.

    Level 0 is ``{(target, False, False): None}``; every later level maps
    each reached ``(pair, coincidence flag, difference flag)`` state to its
    back pointer ``(state one level down, position)``, the first found in
    sorted order.  Stops after the first level whose global state repeats.
    The m-fold pair image of a pair holds an off-diagonal pair exactly when
    the pair is off-diagonal, at every m: the images are pairwise distinct.
    """
    _, image, occurrences = _pair_tables(subst)
    chain = _coincidence_chain(subst)
    last = len(chain) - 1
    state = {(target, False, False): None}
    yield state
    seen = set()
    for level in range(ENGINE_LEVEL_CAP):
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
        sig = (frozenset(new_state), min(level + 1, last))
        if sig in seen:
            return
        seen.add(sig)
        state = new_state
    raise BudgetExceededError("pair fixpoint failed to cycle within the level cap")


def _reconstruct_chain(levels, key):
    """Walk back pointers from the realized key at the top level down to
    the seeded bottom; returns ((parent pair, position), ...) per level,
    bottom transition first."""
    chain = []
    for level in range(len(levels) - 1, 0, -1):
        prev, t = levels[level][key]
        chain.append((key[0], t))
        key = prev
    return tuple(reversed(chain))


@memoised
def ly_witness(subst):
    """First (in alphabet order of targets) minimal witness for the
    Li-Yorke existence criterion, or None: the target pair, the minimal
    level at which it occurs inside its own iterated pair image with both
    a coincidence and a difference after it, and the chain of that
    occurrence, read from the back pointers of the one fixpoint pass.  The
    chain is a tuple, so the memoised witness is shared read-only."""
    _require_recognizable(subst)
    n = subst.size
    for i in range(n):
        for j in range(i + 1, n):
            hit = ((i, j), True, True)
            levels = []
            for state in _ly_levels(subst, (i, j)):
                levels.append(state)
                if hit in state:
                    return (i, j), len(levels) - 1, _reconstruct_chain(levels, hit)
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
    chain = _coincidence_chain(subst)
    last = len(chain) - 1
    count = {q: (1 if q == target else 0) for q in pairs}
    daf = {q: False for q in pairs}
    seen = {}
    for level in range(1, ENGINE_LEVEL_CAP + 1):
        coin = chain[min(level - 1, last)]
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
        count, daf = new_count, new_daf
        if count[target] >= 2 and daf[target]:
            return level
        sig = (tuple(sorted(count.items())), tuple(sorted(daf.items())), min(level, last))
        if sig in seen:
            return None
        seen[sig] = level
    raise BudgetExceededError("double-occurrence fixpoint failed to cycle")


@memoised
def uncountable_witness(subst):
    """First (in alphabet order of targets) witness for the uncountability
    condition, or None: the target pair and the minimal level of the
    double-occurrence engine."""
    _require_recognizable(subst)
    n = subst.size
    for i in range(n):
        for j in range(i + 1, n):
            level = _double_engine(subst, (i, j))
            if level is not None:
                return (i, j), level
    return None


def has_uncountable_ly(subst):
    """Uncountably many Li-Yorke pairs: some power maps a letter pair onto
    two aligned occurrences of itself with a coincidence after the first.
    Equivalently, a recurrent (strong) Li-Yorke pair exists
    (``STRONG_EQUIVALENCE_CHAIN``)."""
    return uncountable_witness(subst) is not None


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
    raise InvariantError("double-occurrence engine and word scan disagree")


# ---------------------------------------------------------------------------
# classification of represented point pairs


class PairClass(Enum):
    DISTAL = "Distal"
    ASYMPTOTIC = "Asymptotic"
    LI_YORKE = "LiYorke"


@dataclass(frozen=True)
class PairVerdict:
    kind: PairClass
    rule: str
    strong: bool | None = None

    def to_json(self):
        # every verdict is exact: the "evidence" key stays, always null
        return {
            "class": self.kind.value,
            "rule": self.rule,
            "strong": self.strong,
            "evidence": None,
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


def _past_finite_forward_data(x, y):
    """The pair itself, or, on a fiber whose digits end in (p-1)^∞, both
    points moved past their finite right sides in one jump
    (``_past_right_end``).  The jump ``p^k - D_k`` is the same for every
    k at or past the preperiod of the digits, so both points move
    together."""
    if x.stream.right_seed is None:
        return x, y
    return (
        RepresentedPoint(_past_right_end(x.stream)),
        RepresentedPoint(_past_right_end(y.stream)),
    )


def _suffix_class(subst, pairs):
    """The class of a same-fiber pair from the letter pairs of its suffixes
    at the period levels (``classify_pair``): asymptotic when every pair is
    diagonal, Li-Yorke when some pair lies in C∞, distal otherwise."""
    if all(a == b for a, b in pairs):
        return PairClass.ASYMPTOTIC
    if not _coincidence_chain(subst)[-1].isdisjoint(pairs):
        return PairClass.LI_YORKE
    return PairClass.DISTAL


def classify_pair(x, y):
    """The exact classification of a represented pair.

    Points over different fibers are distal.  Within a fiber, past
    ``_past_finite_forward_data``, the right half of a point is
    ``suffix_0 σ(suffix_1) σ^2(suffix_2) ...`` and both points have equal
    digits, so the letter pairs of their level-i suffixes expand, under the
    pair substitution, to the aligned coordinates below p^(i+1).  With k
    the preperiod and L the period of the levels:

    - Equal suffixes at the levels k .. k+L-1 mean equal coordinates from
      p^k on: asymptotic.
    - Otherwise a differing suffix letter pair (a, b) recurs every L
      levels and σ^i(a) != σ^i(b) (σ is one-to-one), so differences reach
      arbitrarily far right.  If a suffix letter pair q at a level i >= k
      lies in C∞ (``_coincidence_chain``), its d-fold pair image holds a
      diagonal pair for some d, so its image at each level i + tL >= d
      holds p^(i+tL-d) agreeing coordinates: proximal, hence Li-Yorke.
      If none does, no image of a suffix letter pair at a level >= k holds
      a diagonal pair, every coordinate from p^k on differs, and the pair
      is distal.  ``_suffix_class`` applies this rule to the suffix pairs.

    C∞ is every pair under overall coincidences; under none it is the
    diagonal, and a diagonal suffix pair would need equal centers above
    it, hence equal period levels.  So those classes are all Li-Yorke or
    all distal, and keep their own rule names.  Points are compared by
    their canonical streams (see ``_require_recognizable``).
    """
    if x.subst != y.subst:
        raise PreconditionError("points live over different substitutions")
    s = x.subst
    _require_recognizable(s)
    if x.odometer_digits() != y.odometer_digits():
        return PairVerdict(PairClass.DISTAL, "distinct-odometer-digits")
    if x == y:
        return PairVerdict(PairClass.ASYMPTOTIC, "identical-representation")
    x, y = _past_finite_forward_data(x, y)
    k, _L, ex, ey = _aligned_entries(x, y)
    periodic = zip(ex[k:], ey[k:])
    pairs = [(ord(a), ord(b)) for e1, e2 in periodic for a, b in zip(e1.suffix, e2.suffix)]
    verdict = _suffix_class(s, pairs)
    if verdict is PairClass.ASYMPTOTIC:
        return PairVerdict(PairClass.ASYMPTOTIC, "eventual-suffix-equality")
    kind = coincidence_class(s).kind
    if verdict is PairClass.LI_YORKE:
        strong = True if (s.size == 2 and has_uncountable_ly(s)) else None
        if kind is Coincidence.OVERALL:
            rule = "overall-coincidence-recurrent-difference"
        else:
            rule = "coincidence-closure-recurrent-difference"
        return PairVerdict(PairClass.LI_YORKE, rule, strong)
    if kind is Coincidence.NO_COINCIDENCE:
        return PairVerdict(PairClass.DISTAL, "no-coincidence-separation")
    return PairVerdict(PairClass.DISTAL, "coincidence-closure-separation")


# ---------------------------------------------------------------------------
# constructions


@dataclass(frozen=True)
class ConstructedPair:
    x: RepresentedPoint
    y: RepresentedPoint
    letters: tuple[str, str]
    certificate: object


def _chain_entries(subst, top_letters, positions):
    """Entries of the level chain of an occurrence, cut by the digit list
    of the position under ``top_letters``, which the chain must reach
    again at the bottom; returns the entries low..high for each side."""
    ex, ey = (_entries_below(subst, c, positions) for c in top_letters)
    if (ex[0].center, ey[0].center) != tuple(top_letters):
        raise InvariantError("occurrence chain does not return to its letters")
    return ex, ey


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
            if c + letter_chr not in lang2:
                raise InvariantError("periodic predecessor left the language")
            return c
        for _ in range(power):
            c = chr(lam[ord(c)])
    raise InvariantError("no periodic predecessor found")


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
    ex, ey = _chain_entries(s, (a, b), positions)
    if any(positions):
        cseed = dseed = None
    else:
        cseed = _lambda_periodic_predecessor(s, a, level)
        dseed = _lambda_periodic_predecessor(s, b, level)
    x = RepresentedPoint(DesubstitutionStream(s, (), ex, cseed, None))
    y = RepresentedPoint(DesubstitutionStream(s, (), ey, dseed, None))
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
    ex1, ey1 = _chain_entries(s, (a, b), digits1)
    ex2, ey2 = _chain_entries(s, (a, b), digits2)
    x = RepresentedPoint(DesubstitutionStream(s, (), ex1 + ex2, None, None))
    y = RepresentedPoint(DesubstitutionStream(s, (), ey1 + ey2, None, None))
    return ConstructedPair(x, y, (cert.a, cert.b), cert)


# ---------------------------------------------------------------------------
# enumeration of Li-Yorke orbit representatives


def enumerate_ly_orbits(subst):
    """One representative pair per Li-Yorke pair orbit, when there are
    countably many Li-Yorke pairs (uncountable input is refused).

    A candidate is a simple cycle of off-diagonal letter pairs under the
    occurrence relation, read from one of its starts q_0 = (i, j) with
    i < j: the chain ``((q_1, t_0), ..., (q_L, t_(L-1)))`` with q_L = q_0
    puts q_i at digit t_i inside the pair image of q_(i+1), and is the
    purely periodic level data of one pair (x, y) per seed choice, with
    suffix letter pairs ``image[q_(i+1)][t_i + 1:]`` at level i.  Each
    cycle is decided by ``_suffix_class`` on its suffix pairs before any
    stream is built, and each seed choice of a Li-Yorke cycle is listed.
    A cycle whose digits are all p-1 has no suffix pairs and is skipped.
    This lists exactly one pair per orbit of the Li-Yorke pairs with
    eventually periodic level data:

    - The verdict is the one of ``classify_pair``.  On a cycle that is not
      all p-1 no seed choice has a right seed, so ``classify_pair`` moves
      nothing past a right end.  Both streams are purely periodic with the
      cycle as their common period (a shorter one would repeat a pair of
      the simple cycle), so k = 0 and it reads exactly the suffix pairs of
      the steps.  Seeds never enter its verdict, so one verdict holds for
      every seed choice.
    - Such a pair has eventually periodic odometer digits, a rational z,
      and the shift adds 1 to z.  Purely periodic digit sequences are the
      rationals in [-1, 0] (period L with digit value B stands for
      -B / (p^L - 1)), so an orbit meets exactly one purely periodic fiber,
      in one pair, except that the fibers 0 and -1 share the orbits that
      meet them.
    - The all-(p-1) cycles add no orbit.  A Li-Yorke pair over the fiber
      -1 has right seeds d != e (equal seeds give equal right halves past
      the right end, an asymptotic pair).  Its shift, ``_past_right_end``
      with k = 0, has the first-letter periods of d and e and the left
      seeds c_0, c_0', its level-0 centers: the fiber-0 candidate of the
      cycle of (d, e) under the first-letter map on both sides, which is
      simple and off-diagonal.  ``_seed_choices`` admits c_0 and c_0'
      (they lie on cycles of the last-letter map, and c_0 d is a word of
      the point), and verdicts do not change under the shift, so that
      orbit is listed from fiber 0.
    - Under countability the level chain of one (primitive) period of a
      Li-Yorke pair over a purely periodic fiber is a simple cycle.  Its
      center pairs are off-diagonal: a diagonal center pair has equal
      blocks below it, and being periodic, at every level, so the pair
      would be asymptotic.  Let an off-diagonal pair q be the center pair
      at two levels i < j of one period of length L.  The steps from j
      down to i (A) and from i + L down to j (B) both lead from q to q,
      so inside the pair image of q at level i + kL the steps (BA)^k (the
      centers) and AB(BA)^(k-1) reach two occurrences of q at level i.
      They differ: AB = BA would make A and B powers of one word, and
      the period would not be primitive.  The pair is Li-Yorke, so a
      suffix pair at some level h lies in C∞ (``classify_pair``) and,
      once h - i passes its depth, puts a diagonal pair right of the
      center at level i; for large k that is inside the image, after the
      first of the two occurrences.  This is the double-occurrence
      condition of ``has_uncountable_ly``, which countability excludes.
    - The walk lists each simple cycle once per start, and distinct
      starts are distinct pairs: the chains differ in some center pair or
      digit (a simple cycle is a primitive word).  A listed pair's start
      is its level-0 center pair, and the exchanged pair (y, x) has the
      exchanged start (j, i), which is not walked, so each unordered pair
      is listed once.  Distinct pairs over one fiber are distinct orbits,
      since the shift moves every point off its fiber.

    The pairs with a non-periodic (irrational) digit sequence are not
    represented and are not listed.
    """
    _require_recognizable(subst)
    if has_uncountable_ly(subst):
        raise PreconditionError(
            "enumeration refused: the substitution has uncountably many "
            "Li-Yorke pairs"
        )
    if not has_ly_pairs(subst):
        return []
    s = subst
    _, image, occurrences = _pair_tables(s)
    chains = []
    for q in sorted(occurrences):
        if q[0] >= q[1]:
            continue
        # explicit-stack walk over simple paths: path[i] is the step
        # (parent, t) into the pair of level i + 1, stack[i] the steps
        # still to try out of the pair of level i
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
        # an all-(p-1) cycle has no suffix pairs and is skipped: its orbits
        # are listed from fiber 0
        suffixes = [r for parent, t in chain for r in image[parent][t + 1 :]]
        if _suffix_class(s, suffixes) is not PairClass.LI_YORKE:
            continue
        positions = [t for _, t in chain]
        top = chain[-1][0]
        ex, ey = _chain_entries(s, (chr(top[0]), chr(top[1])), positions)
        seeds_x = _seed_choices(s, positions, ex[0].center)
        seeds_y = _seed_choices(s, positions, ey[0].center)
        for (lx, rx), (ly_, ry) in itertools.product(seeds_x, seeds_y):
            x = RepresentedPoint(DesubstitutionStream(s, (), ex, lx, rx))
            y = RepresentedPoint(DesubstitutionStream(s, (), ey, ly_, ry))
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
