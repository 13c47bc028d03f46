"""Exact decision procedures for pairs: coincidence structure, existence
and abundance of Li-Yorke pairs, classification of represented point
pairs, and the explicit pair/scrambled-set constructions.

Every decision reads one int-coded layer on the letter pairs
(``_pair_layer``), which codes the pair (i, j) as q = i·n + j.  It holds
the pair images, the occurrences of each pair, and the coincidence depth
of each pair from one breadth-first search, which gives C∞ and every set
of the coincidence chain.  The existence and abundance decisions, and the
orbit list, read its graph on the off-diagonal letter pairs: an edge
q -> P for each occurrence of q in the pair image of P, labelled by the
letter pairs right of that occurrence.  A closed walk is an occurrence of
a pair inside its own iterated pair image, so each answer is a property
of one strongly connected component, and one pass of Tarjan's algorithm
flags them all, with one comparison per inner edge in place of a label.
The witness of the existence criterion comes from a level-synchronous
search over ``(pair, coincidence flag, difference flag)`` states started
at one pair of a flagged component; it ends within a bound proven in
``ly_witness``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from operator import add

from .errors import BudgetExceededError, InvariantError, PreconditionError
from .streams import (
    RepresentedPoint,
    StreamEntry,
    _entries_below,
    _past_right_end,
    _require_recognizable,
    _seed_choices,
)
from .substitution import (
    Substitution,
    _charge_pair_positions,
    cycle_length,
    iterate_chr,
    json_word,
    language_chr,
    last_letter_map,
    memoised,
)

CERTIFICATE_WORD_CAP = 10**6


class Coincidence(Enum):
    NO_COINCIDENCE = "no_coincidence"
    PARTIAL = "partial"
    OVERALL = "overall"


@dataclass(frozen=True)
class CoincidenceClass:
    kind: Coincidence


# ---------------------------------------------------------------------------
# the pair layer and the witness search


_Component = namedtuple("_Component", "size ly unc")
_Component.__doc__ = """A strongly connected component of the pair graph:
its number of pairs and the flags of ``_pair_layer``."""


@dataclass(frozen=True)
class _PairLayer:
    """The letter pairs of one substitution, built by ``_pair_layer``.
    The pair (i, j) is the code q = i·n + j (n = |A|), so the order of
    the codes is the alphabet order of the pairs; every list is indexed
    by code and only read."""

    n: int
    image: list  # q -> its pair image, a list of codes
    occurrences: list  # q -> the (P, t) with image[P][t] == q, in (P, t) order
    depth: list  # q -> the least m with q in coin_m, or n·n off C∞
    deepest: int  # the largest depth below n·n
    last_off: list  # P -> the last position of an off-diagonal pair in image[P], or -1
    component: list  # off-diagonal q -> the index of its component; diagonal q -> -1
    components: list  # index -> _Component
    first: dict  # "ly" / "unc" -> the least code (i, j), i < j, whose component has it, or None


@memoised
def _pair_layer(subst):
    """The int-coded pair layer of a constant-length substitution, built
    in passes linear in the n²·p letter pairs of the pair images.

    Depths.  coin_0 ⊂ coin_1 ⊂ ... ⊂ C∞: coin_0 is the diagonal and
    coin_(m+1) the pairs whose pair image holds a member of coin_m, so
    coin_m holds the pairs whose m-fold pair image holds a diagonal pair.
    Diagonal pairs map to diagonal pairs, so the sets only grow, and C∞,
    their union, is the least set that holds the diagonal and every pair
    whose pair image holds a member.  A breadth-first search from the
    diagonal along the occurrences (r -> P for each occurrence of r in the
    pair image of P) reaches P first at the least m with P in coin_m, its
    depth; the pairs it never reaches lie outside C∞.  A pair of depth
    d + 1 has one of depth d in its image, so the depths below n² are
    0, 1, ..., ``deepest`` without a gap, and the chain has k =
    ``deepest`` + 1 distinct sets.  The depth of a pair is 0 exactly when
    it is diagonal.

    The pair graph.  Its vertices are the off-diagonal letter pairs.  Each
    occurrence ``(P, t)`` of q in the pair image of P is an edge q -> P
    labelled ``image[P][t + 1:]``; P is off-diagonal, since diagonal pairs
    map to diagonal pairs.  A walk q_0 -> ... -> q_m puts q_0 inside the
    m-fold pair image of q_m, and the label of its step l expands l more
    times into letter pairs right of that occurrence.  So a closed walk of
    length m at q is an occurrence of q inside its own m-fold pair image,
    all its edges lie inside the component of q, and distinct closed walks
    are distinct occurrences.  A component is

    - ``ly`` when the labels of its inner edges hold a pair of C∞ and an
      off-diagonal pair.  Exactly then the search of ``ly_witness`` from
      any of its pairs hits (the proof is there), so Li-Yorke pairs exist
      iff some component is ``ly``.
    - ``unc`` when those labels hold a pair of C∞ and it has more inner
      edges than pairs, that is, it is not one simple cycle.  Exactly then
      each of its pairs q occurs twice inside some m-fold pair image of q
      with a diagonal pair after the first occurrence, the condition of
      ``has_uncountable_ly``.  Two closed walks of one length at q are not
      on one simple cycle, and the diagonal pair right of the first comes
      from a label on its own walk, which lies in C∞.  Conversely, some
      pair r has two inner edges e != f; with R a path from q to r,
      closing e and f back to q gives closed walks A and B at q that
      branch after R, so they are not powers of one walk and AB != BA.
      With W a closed walk at q through an edge with a C∞ label of depth
      d < k, the k-th copy of that edge in ABW^k and in BAW^k sits at a
      step >= k - 1 >= d, so the two occurrences at one level each have a
      diagonal pair after them.

    No label is built: the label of ``(P, t)`` holds a pair of C∞ exactly
    when t is below the last position of a C∞ pair in the image of P, and
    an off-diagonal pair exactly when t < ``last_off[P]``, so each flag is
    one comparison per inner edge.

    The exchange (i, j) -> (j, i) maps the graph onto itself, labels
    included, so a component and its mirror carry the same flags.
    Tarjan's algorithm runs on an explicit stack: a pair is open while it
    is visited and not yet in a finished component, and the open pairs
    sit on the stack in the order of their visits.  The n²·p positions
    are charged against the word budget before anything is built.
    """
    _charge_pair_positions(subst)
    n = subst.size
    nn = n * n
    letters = [list(map(ord, w)) for w in subst.images]
    image = []
    for u in letters:
        row = [a * n for a in u]
        image.extend(list(map(add, row, v)) for v in letters)
    occurrences = [[] for _ in range(nn)]
    for P, img in enumerate(image):
        for t, q in enumerate(img):
            occurrences[q].append((P, t))

    # breadth-first from the diagonal; last_meet[P] ends as the last
    # position of a C∞ pair in the image of P
    depth = [nn] * nn
    last_meet = [-1] * nn
    queue = list(range(0, nn, n + 1))
    for q in queue:
        depth[q] = 0
    for r in queue:
        d = depth[r] + 1
        for P, t in occurrences[r]:
            if depth[P] == nn:
                depth[P] = d
                queue.append(P)
            if t > last_meet[P]:
                last_meet[P] = t
    last_off = []
    for img in image:
        t = len(img) - 1
        while t >= 0 and depth[img[t]] == 0:
            t -= 1
        last_off.append(t)

    order, low, component = [-1] * nn, [0] * nn, [-1] * nn
    visits, stack, components = 0, [], []
    for root in range(nn):
        if depth[root] == 0 or order[root] >= 0:
            continue
        order[root] = low[root] = visits
        visits += 1
        stack.append(root)
        work = [(root, iter(occurrences[root]))]
        while work:
            q, steps = work[-1]
            for parent, _ in steps:
                if order[parent] < 0:
                    order[parent] = low[parent] = visits
                    visits += 1
                    stack.append(parent)
                    work.append((parent, iter(occurrences[parent])))
                    break
                if component[parent] < 0 and order[parent] < low[q]:
                    low[q] = order[parent]
            else:
                work.pop()
                if work and low[q] < low[work[-1][0]]:
                    low[work[-1][0]] = low[q]
                if low[q] == order[q]:
                    at = bisect_left(stack, order[q], key=order.__getitem__)
                    members, stack[at:] = stack[at:], []
                    c = len(components)
                    for r in members:
                        component[r] = c
                    flags = _component_flags(
                        members, c, component, occurrences, last_meet, last_off
                    )
                    components.append(_Component(len(members), *flags))

    targets = [i * n + j for i in range(n) for j in range(i + 1, n)]
    first = {
        flag: next((q for q in targets if getattr(components[component[q]], flag)), None)
        for flag in ("ly", "unc")
    }
    return _PairLayer(
        n, image, occurrences, depth, depth[queue[-1]], last_off, component, components, first
    )


def _component_flags(members, c, component, occurrences, last_meet, last_off):
    """The ``ly`` and ``unc`` flags of component ``c`` from its inner edges
    (see ``_pair_layer``), read until both are settled."""
    edges, meets, differs = 0, False, False
    for r in members:
        for P, t in occurrences[r]:
            if component[P] == c:
                edges += 1
                if t < last_meet[P]:
                    meets = True
                if t < last_off[P]:
                    differs = True
                if meets and differs and edges > len(members):
                    return True, True
    return meets and differs, meets and edges > len(members)


@memoised
def coincidence_class(subst):
    """Position-wise comparison of all image pairs, read off the depths of
    ``_pair_layer``: ``coin_1`` holds the letter pairs whose images agree
    at some position (and the diagonal).  Overall when that is every pair,
    none when it is only the diagonal (the chain stops at once)."""
    if subst.constant_length is None:
        raise PreconditionError("coincidence structure needs constant length")
    layer = _pair_layer(subst)
    if max(layer.depth) <= 1:
        return CoincidenceClass(Coincidence.OVERALL)
    if layer.deepest == 0:
        return CoincidenceClass(Coincidence.NO_COINCIDENCE)
    return CoincidenceClass(Coincidence.PARTIAL)


def _first_target(subst, flag):
    """The code of the first pair (i, j), i < j, whose component carries
    ``flag``, or None, on the domain of ``_require_recognizable``.
    Mirrored components carry equal flags, so there is one iff some
    component does."""
    _require_recognizable(subst)
    return _pair_layer(subst).first[flag]


def _right_depths(depth, img):
    """Per position t of a pair image, the least depth of a pair right of
    t: ``len(depth)`` when none lies in C∞."""
    from_right = map(depth.__getitem__, reversed(img))
    least = list(itertools.accumulate(from_right, min, initial=len(depth)))
    least.pop()
    least.reverse()
    return least


def _ly_levels(subst, target):
    """The levels of the existence search started at the target code.

    Level 0 is ``{(target, False, False): None}``; every later level maps
    each reached ``(pair code, coincidence flag, difference flag)`` state
    to its back pointer ``(state one level down, position)``, the first
    found in sorted order.  A state at level m is a walk of length m in
    the pair graph from the target; the coincidence flag says that the
    label of some step l holds a pair of ``coin_l``, and the difference
    flag that some label holds an off-diagonal pair.  The label of step l
    holds a pair of ``coin_l`` exactly when its least depth, computed once
    per parent (``_right_depths``), is at most min(l, ``deepest``).  The
    m-fold pair image of a pair holds an off-diagonal pair exactly when
    the pair is off-diagonal, at every m: the images are pairwise
    distinct.  The levels never end; ``ly_witness`` stops reading them.
    """
    layer = _pair_layer(subst)
    depth, image, occurrences = layer.depth, layer.image, layer.occurrences
    last_off = layer.last_off
    least = [None] * len(depth)
    state = {(target, False, False): None}
    yield state
    for level in itertools.count():
        cap = min(level, layer.deepest)
        new_state = {}
        for key in sorted(state):
            q, fc, fd = key
            for parent, t in occurrences[q]:
                right = least[parent]
                if right is None:
                    right = least[parent] = _right_depths(depth, image[parent])
                new_state.setdefault(
                    (parent, fc or right[t] <= cap, fd or t < last_off[parent]), (key, t)
                )
        yield new_state
        state = new_state


def _reconstruct_chain(levels, key):
    """Walk back pointers from the realized key at the top level down to
    the seeded bottom; returns ((parent, position), ...) per level, bottom
    transition first."""
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
    occurrence, read from the back pointers of the search.  The pairs are
    given as letter-index tuples and the chain is a tuple, so the memoised
    witness is shared read-only.

    A target hits exactly when its component is ``ly`` (``_pair_layer``),
    so the search starts at the first such target only.  A hit is a
    closed walk whose flags come from labels on it, all inner edges of the
    component.  Conversely, take inner edges e with a C∞ label and f with
    an off-diagonal label.  Paths of fewer than V = |component| steps
    lead from the target through e and f back to it, a closed walk of
    length w <= 3V.  Repeated k = ``deepest`` + 1 times, the last copy of
    e sits at a step >= k - 1, where the search tests its label against
    C∞ itself.  So the hit comes at a level <= 3Vk, and a search past it
    is a defect.
    """
    target = _first_target(subst, "ly")
    if target is None:
        return None
    layer = _pair_layer(subst)
    bound = 3 * layer.components[layer.component[target]].size * (layer.deepest + 1)
    hit = (target, True, True)
    levels = []
    for state in _ly_levels(subst, target):
        levels.append(state)
        if hit in state:
            chain = tuple((divmod(P, layer.n), t) for P, t in _reconstruct_chain(levels, hit))
            return divmod(target, layer.n), len(levels) - 1, chain
        if len(levels) > bound:
            raise InvariantError("Li-Yorke search passed its proven level bound")


def has_ly_pairs(subst):
    """Existence of Li-Yorke pairs: some power of the substitution maps a
    letter pair onto aligned occurrences of itself followed by both a
    coincidence and a difference, that is, some component of the pair
    graph is ``ly``."""
    return _first_target(subst, "ly") is not None


def has_uncountable_ly(subst):
    """Uncountably many Li-Yorke pairs: some power maps a letter pair onto
    two aligned occurrences of itself with a coincidence after the first,
    that is, some component of the pair graph is ``unc``.  Equivalently,
    a recurrent (strong) Li-Yorke pair exists
    (``STRONG_EQUIVALENCE_CHAIN``)."""
    return _first_target(subst, "unc") is not None


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
        return {
            "m": self.power,
            "a": self.a,
            "b": self.b,
            "u": json_word(self.u),
            "v": json_word(self.v),
            "u2": json_word(self.u2),
            "v2": json_word(self.v2),
        }


def li_yorke_certificate(subst):
    wit = ly_witness(subst)
    if wit is None:
        return None
    (ai, bi), level, chain = wit
    p = subst.constant_length
    if p**level > CERTIFICATE_WORD_CAP:
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


def uncountable_certificate(subst):
    """The first (in alphabet order) pair (a, b) whose component of the
    pair graph is ``unc``, at the least power m at which (a, b) occurs
    twice, aligned, inside the m-fold images of a and b with a diagonal
    position after the first occurrence, or None.  Such an m exists
    (``_pair_layer``); the words are scanned at m = 1, 2, ... and a power
    whose words exceed ``CERTIFICATE_WORD_CAP`` is refused."""
    target = _first_target(subst, "unc")
    if target is None:
        return None
    ai, bi = divmod(target, subst.size)
    a, b = chr(ai), chr(bi)
    p = subst.constant_length
    for m in itertools.count(1):
        if p**m > CERTIFICATE_WORD_CAP:
            raise BudgetExceededError(f"certificate words at power {m} exceed the word cap")
        ua = iterate_chr(subst, a, m)
        ub = iterate_chr(subst, b, m)
        hits = [t for t in range(len(ua)) if ua[t] == a and ub[t] == b]
        if len(hits) >= 2 and any(map(str.__eq__, ua[hits[0] + 1 :], ub[hits[0] + 1 :])):
            return DoubleCertificate(
                power=m,
                a=subst.alphabet[ai],
                b=subst.alphabet[bi],
                first=hits[0],
                second=hits[1],
            )


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
    points; returns (k, L, entries_x, entries_y) with entries covering
    levels 0 .. k+L-1."""
    k = max(len(x.preperiod), len(y.preperiod))
    L = math.lcm(len(x.period), len(y.period))
    ex = [x.entry(i) for i in range(k + L)]
    ey = [y.entry(i) for i in range(k + L)]
    return k, L, ex, ey


def _past_finite_forward_data(x, y):
    """The pair itself, or, on a fiber whose digits end in (p-1)^∞, both
    points moved past their finite right sides in one jump
    (``_past_right_end``).  The jump ``p^k - D_k`` is the same for every
    k at or past the preperiod of the digits, so both points move
    together."""
    if x.right_seed is None:
        return x, y
    return _past_right_end(x), _past_right_end(y)


def _suffix_class(subst, pairs):
    """The class of a same-fiber pair from the codes of the letter pairs
    of its suffixes at the period levels (``classify_pair``): asymptotic
    when every pair is diagonal (depth 0), Li-Yorke when some pair lies in
    C∞ (a depth below n²), distal otherwise."""
    depth = _pair_layer(subst).depth
    if all(depth[q] == 0 for q in pairs):
        return PairClass.ASYMPTOTIC
    if any(depth[q] < len(depth) for q in pairs):
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
      lies in C∞ (``_pair_layer``), its d-fold pair image holds a
      diagonal pair for some d, so its image at each level i + tL >= d
      holds p^(i+tL-d) agreeing coordinates: proximal, hence Li-Yorke.
      If none does, no image of a suffix letter pair at a level >= k holds
      a diagonal pair, every coordinate from p^k on differs, and the pair
      is distal.  ``_suffix_class`` applies this rule to the suffix pairs.

    C∞ is every pair under overall coincidences; under none it is the
    diagonal, and a diagonal suffix pair would need equal centers above
    it, hence equal period levels.  So those classes are all Li-Yorke or
    all distal, and keep their own rule names.  Points are compared by
    their canonical fields (see ``_require_recognizable``).
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
    n = s.size
    pairs = [ord(a) * n + ord(b) for e1, e2 in periodic for a, b in zip(e1.suffix, e2.suffix)]
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
    of the position under ``top_letters``; returns the entries low..high
    for each side.  The chain must reach its top letters again at the
    bottom.  On the one-to-one domain of every caller that is exactly the
    chain check of the ``RepresentedPoint`` constructor at the period's
    end (the image of the bottom center is the top block), so a chain
    that does not return is refused there with ``StreamChainError``."""
    return tuple(_entries_below(subst, c, positions) for c in top_letters)


def _lambda_periodic_predecessor(subst, letter_chr, power):
    """A letter c on a cycle of the last-letter map with ``c letter`` in
    the language: follow the last-letter map of the iterated substitution
    from any predecessor until it lands on a cycle.

    The letter heads its own ``power``-fold image (its chain has all
    digits zero), and the boundary map B(c d) = last(σ(c)) first(σ(d))
    keeps L_2, so B^power(c letter) = λ^power(c) letter stays in the
    language at every step; the seed-junction check of the
    ``RepresentedPoint`` constructor refuses any seed that does not."""
    s = subst
    lang2 = language_chr(s, 2)
    lam = last_letter_map(s)
    preds = [chr(c) for c in range(s.size) if chr(c) + letter_chr in lang2]
    if not preds:
        raise PreconditionError("letter has no predecessor in the language")
    c = preds[0]
    for _ in range(2 * s.size):
        if cycle_length(lam, ord(c)) is not None:
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
    x = RepresentedPoint(s, (), ex, cseed, None)
    y = RepresentedPoint(s, (), ey, dseed, None)
    return ConstructedPair(x, y, (s.alphabet[ai], s.alphabet[bi]), cert)


def construct_recurrent_ly_pair(subst):
    """The recurrent Li-Yorke pair from the double-occurrence witness.

    The witness, (a, b) at j1 < j2 in σ^m(a) × σ^m(b), is squared if
    needed so both occurrences have nonempty words on each side: then
    j1 != 0 and j2 != p^m - 1.  The period of x is the level chain of j1
    at levels 0..m-1, then the chain of j2 at levels m..2m-1, so its
    digits over one period have the value V = j1 + j2·p^m and the center
    at every level 2mk is a; y has the same digits with b in place of a.

    Return times.  Let t_k = (j2 - j1)·p^(2mk) and r_k = min(D_k,
    p^(2mk) - 1 - D_k), with D_k = V·(p^(2mk) - 1)/(p^(2m) - 1) the
    digit value of the first 2mk levels.  Then S^(t_k) x agrees with x on
    [-r_k, r_k], and S^(t_k) y with y.  The level-2mk block σ^(2mk)(a)
    of x covers [-D_k, p^(2mk) - D_k).  The pair (a, b) occurs in
    σ^(2m)(a) × σ^(2m)(b) at V (the chain of the period) and at
    R = j2 + j2·p^m (the chain of j2 twice), R - V = j2 - j1 > 0.  So
    the level-2m(k+1) block, σ^(2mk) of σ^(2m)(a), holds the level-2mk
    block at V·p^(2mk), around the origin (D_(k+1) = D_k + V·p^(2mk)),
    and a second copy at R·p^(2mk), t_k to the right of it; the same
    positions hold σ^(2mk)(b) in y.  Both copies cover [-r_k, r_k]
    around their origins.  Since 0 < V < p^(2m) - 1, r_k grows without
    bound, so the pair is recurrent; the test suite checks these return
    times on the windows (``tests/conftest.py:check_recurrent_return_times``)."""
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
    x = RepresentedPoint(s, (), ex1 + ex2, None, None)
    y = RepresentedPoint(s, (), ey1 + ey2, None, None)
    return ConstructedPair(x, y, (cert.a, cert.b), cert)


# ---------------------------------------------------------------------------
# enumeration of Li-Yorke orbit representatives


def enumerate_ly_orbits(subst):
    """One representative pair per Li-Yorke pair orbit, when there are
    countably many Li-Yorke pairs (uncountable input is refused).

    A candidate is a ``ly`` component of the pair graph (``_pair_layer``).
    Under countability it is one simple cycle, since a ``ly`` component
    with more inner edges than pairs is ``unc``.  It is read from each of
    its starts q_0 = (i, j) with i < j by following the one inner step out
    of each pair: the chain ``((q_1, t_0), ..., (q_L, t_(L-1)))`` with
    q_L = q_0 puts q_i at digit t_i inside the pair image of q_(i+1), and
    is the purely periodic level data of one pair (x, y) per seed choice,
    with suffix letter pairs ``image[q_(i+1)][t_i + 1:]`` at level i, the
    labels of the cycle.  Each seed choice is listed.  This lists exactly
    one pair per orbit of the Li-Yorke pairs with eventually periodic level
    data:

    - The verdict is the one of ``classify_pair``.  The cycle has a label,
      so its digits are not all p-1, no seed choice has a right seed, and
      ``classify_pair`` moves nothing past a right end.  Both streams are
      purely periodic with the cycle as their common period (a shorter one
      would repeat a pair of the simple cycle), so k = 0 and it reads
      exactly the labels of the cycle.  They hold a pair of C∞ and an
      off-diagonal pair, which ``_suffix_class`` calls Li-Yorke, for every
      seed choice.
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
    - Every Li-Yorke pair over a purely periodic fiber is a candidate.
      The level chain of one (primitive) period is a closed walk in the
      pair graph: its center pairs are off-diagonal, since a diagonal
      center pair has equal blocks below it, and being periodic, at every
      level, so the pair would be asymptotic.  Its labels are the suffix
      pairs of the period levels, which hold a pair of C∞ and an
      off-diagonal pair (``classify_pair``).  So its component is ``ly``,
      hence one simple cycle, and a primitive closed walk on it is the
      cycle read from one start.
    - Each cycle is read once per start, and distinct starts are distinct
      pairs: the chains differ in some center pair or digit (a simple
      cycle is a primitive word).  A listed pair's start is its level-0
      center pair, and the exchanged pair (y, x) has the exchanged start
      (j, i), which is not read, so each unordered pair is listed once.
      Distinct pairs over one fiber are distinct orbits, since the shift
      moves every point off its fiber.

    The pairs with a non-periodic (irrational) digit sequence are not
    represented and are not listed.
    """
    if has_uncountable_ly(subst):
        raise PreconditionError(
            "enumeration refused: the substitution has uncountably many "
            "Li-Yorke pairs"
        )
    s = subst
    layer = _pair_layer(s)
    n, occurrences, component = layer.n, layer.occurrences, layer.component

    def inner(q):
        return next(step for step in occurrences[q] if component[step[0]] == component[q])

    chains = []
    for start in range(n * n):
        if start // n >= start % n or not layer.components[component[start]].ly:
            continue
        chain = [inner(start)]
        while chain[-1][0] != start:
            chain.append(inner(chain[-1][0]))
        chains.append(tuple(chain))

    results = []
    for chain in sorted(chains):
        positions = [t for _, t in chain]
        top = divmod(chain[-1][0], n)
        ex, ey = _chain_entries(s, tuple(map(chr, top)), positions)
        seeds_x = _seed_choices(s, positions, ex[0].center)
        seeds_y = _seed_choices(s, positions, ey[0].center)
        for (lx, rx), (ly_, ry) in itertools.product(seeds_x, seeds_y):
            x = RepresentedPoint(s, (), ex, lx, rx)
            y = RepresentedPoint(s, (), ey, ly_, ry)
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
    images = tuple(chr(0) + chr(a) * 2 + chr((a + 1) % (n + 1)) + chr(0) for a in range(n + 1))
    s = Substitution(alphabet, images)
    points = [
        RepresentedPoint(s, (), (StreamEntry(img[:1], img[1], img[2:]),), None, None)
        for img in images
    ]
    return s, points
