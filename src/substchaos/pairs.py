"""Exact decision procedures for pairs: coincidence structure, existence
and abundance of Li-Yorke pairs, classification of represented point
pairs, and the explicit pair/scrambled-set constructions.

Every decision reads one int-coded layer on the letter pairs
(``_pair_layer``), which codes the pair (i, j) as q = i·n + j.  It holds
the occurrences of each pair as two int tuples, the parent pairs and the
positions, with no pair image kept, and the coincidence depth of each
pair from one breadth-first search, which gives C∞ and every set of the
coincidence chain.  The existence and abundance decisions, and the
orbit list, read its graph on the off-diagonal letter pairs: an edge
q -> P for each occurrence of q in the pair image of P, labelled by the
letter pairs right of that occurrence.  A closed walk is an occurrence of
a pair inside its own iterated pair image, so each answer is a property
of one strongly connected component, and one pass of Tarjan's algorithm
flags them all, with one comparison per inner edge in place of a label.
The witness of the existence criterion comes from a level-synchronous
search over ``(pair, coincidence flag, difference flag)`` states started
at one pair of a flagged component; it ends within a bound proven in
``ly_witness``, and reads each label as one comparison with a threshold
(``_ly_levels``).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from operator import add

from .errors import InvariantError, PreconditionError, charge
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


CoincidenceClass = namedtuple("CoincidenceClass", "kind")


# ---------------------------------------------------------------------------
# the pair layer and the witness search


_Component = namedtuple("_Component", "size ly unc")
_Component.__doc__ = """A strongly connected component of the pair graph:
its number of pairs and the flags of ``_pair_layer``."""


_PairLayer = namedtuple(
    "_PairLayer",
    "n parents positions depth deepest last_meet last_off component components first",
)
_PairLayer.__doc__ = """The letter pairs of one substitution, built by ``_pair_layer``.
The pair (i, j) is the code q = i·n + j (n = |A|), so the order of the
codes is the alphabet order of the pairs; every sequence is indexed by
code and only read.  The pair image of P = (i, j) is not stored: its
position t is the pair of the letters at t of the images of i and j.

- ``parents``, ``positions``: q -> the tuples of the P and t with q at
  position t of the pair image of P, in (P, t) order, one slot of each
  per letter-pair position;
- ``depth``: q -> the least m with q in coin_m, or n·n off C∞;
- ``deepest``: the largest depth below n·n;
- ``last_meet``: P -> the last position of a C∞ pair in the pair image
  of P, or -1;
- ``last_off``: P -> the last position of an off-diagonal pair in the
  pair image of P, or -1;
- ``component``: off-diagonal q -> the index of its component, diagonal
  q -> -1;
- ``components``: index -> ``_Component``;
- ``first``: "ly" / "unc" -> the least code (i, j), i < j, whose
  component has it, or None."""


@memoised
def _pair_layer(subst):
    """The int-coded pair layer of a constant-length substitution, built
    in passes linear in the n²·p letter pairs of the pair images, which it
    keeps as two int tuples per pair (``_PairLayer``): about 21 bytes per
    letter-pair position, where a (P, t) tuple per position took 108.

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
    occurrence of q at position t of the pair image of P is an edge
    q -> P labelled by the pairs right of t in that image; P is
    off-diagonal, since diagonal pairs map to diagonal pairs.  A walk
    q_0 -> ... -> q_m puts q_0 inside the m-fold pair image of q_m, and
    the label of its step l expands l more times into letter pairs right
    of that occurrence.  So a closed walk of length m at q is an
    occurrence of q inside its own m-fold pair image, all its edges lie
    inside the component of q, and distinct closed walks are distinct
    occurrences.  A component is

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

    No label is built: the label of an edge into P at t holds a pair of
    C∞ exactly when t < ``last_meet[P]``, and an off-diagonal pair exactly
    when t < ``last_off[P]``, so each flag is one comparison per inner
    edge.

    The exchange (i, j) -> (j, i) maps the graph onto itself, labels
    included, so a component and its mirror carry the same flags.
    Tarjan's algorithm runs on an explicit stack and reads only
    ``parents``: a pair is open while it is visited and not yet in a
    finished component, and the open pairs sit on the stack in the order
    of their visits.  The n²·p positions are charged against the word
    budget before anything is built.
    """
    _charge_pair_positions(subst)
    n = subst.size
    nn = n * n
    letters = [list(map(ord, w)) for w in subst.images]
    rows = [[a * n for a in u] for u in letters]
    parents = [[] for _ in range(nn)]
    positions = [[] for _ in range(nn)]
    for P, (row, v) in enumerate(itertools.product(rows, letters)):
        for t, q in enumerate(map(add, row, v)):
            parents[q].append(P)
            positions[q].append(t)
    parents = tuple(map(tuple, parents))
    positions = tuple(map(tuple, positions))

    # breadth-first from the diagonal; last_meet[P] ends as the last
    # position of a C∞ pair in the image of P
    depth = [nn] * nn
    last_meet = [-1] * nn
    queue = list(range(0, nn, n + 1))
    for q in queue:
        depth[q] = 0
    for r in queue:
        d = depth[r] + 1
        for P, t in zip(parents[r], positions[r]):
            if depth[P] == nn:
                depth[P] = d
                queue.append(P)
            if t > last_meet[P]:
                last_meet[P] = t
    last_off = []
    for u, v in itertools.product(subst.images, repeat=2):
        t = len(u) - 1
        while t >= 0 and u[t] == v[t]:
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
        work = [(root, iter(parents[root]))]
        while work:
            q, steps = work[-1]
            for parent in steps:
                if order[parent] < 0:
                    order[parent] = low[parent] = visits
                    visits += 1
                    stack.append(parent)
                    work.append((parent, iter(parents[parent])))
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
                        members, c, component, parents, positions, last_meet, last_off
                    )
                    components.append(_Component(len(members), *flags))

    targets = [i * n + j for i in range(n) for j in range(i + 1, n)]
    first = {
        flag: next((q for q in targets if getattr(components[component[q]], flag)), None)
        for flag in ("ly", "unc")
    }
    deepest = depth[queue[-1]]
    return _PairLayer(
        n, parents, positions, depth, deepest, last_meet, last_off, component, components, first
    )


def _component_flags(members, c, component, parents, positions, last_meet, last_off):
    """The ``ly`` and ``unc`` flags of component ``c`` from its inner edges
    (see ``_pair_layer``), read until both are settled."""
    edges, meets, differs = 0, False, False
    for r in members:
        for P, t in zip(parents[r], positions[r]):
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


def _ly_levels(subst, target):
    """The levels of the existence search started at the target code.

    Level 0 is ``{(target, False, False): 0}``; level l + 1 maps each
    reached ``(pair code, coincidence flag, difference flag)`` state to
    the position of the target inside the (l + 1)-fold pair image of its
    pair: a step into ``parent`` at digit t from a state at position j
    gives t·p^l + j, the first found in sorted order.  A state at level m
    is a walk of length m in the pair graph from the target; the
    coincidence flag says that the label of some step l holds a pair of
    ``coin_l``, and the difference flag that some label holds an
    off-diagonal pair.  The m-fold pair image of a pair holds an
    off-diagonal pair exactly when the pair is off-diagonal, at every m:
    the images are pairwise distinct.  The levels never end;
    ``ly_witness`` stops reading them.

    The threshold.  With c = min(l, ``deepest``), the label of step l
    holds a pair of ``coin_l`` = ``coin_c`` exactly when t < ``meet``, the
    last position of the parent's pair image whose pair has depth <= c
    (-1 if none): some position right of t has depth <= c exactly when the
    last such position lies right of t.  From l = ``deepest`` on that is
    ``last_meet[parent]``; below it, ``meet`` is found once per level and
    parent by scanning the parent's two letter images from the right.
    """
    layer = _pair_layer(subst)
    n, depth, deepest = layer.n, layer.depth, layer.deepest
    parents, positions, last_off = layer.parents, layer.positions, layer.last_off
    letters = [list(map(ord, w)) for w in subst.images]
    p = subst.constant_length
    state = {(target, False, False): 0}
    yield state
    scale = 1
    for level in itertools.count():
        below = level < deepest
        meets = {} if below else layer.last_meet
        new_state = {}
        for (q, fc, fd), position in sorted(state.items()):
            for parent, t in zip(parents[q], positions[q]):
                if below and parent not in meets:
                    u, v = letters[parent // n], letters[parent % n]
                    meet = p - 1
                    while meet >= 0 and depth[u[meet] * n + v[meet]] > level:
                        meet -= 1
                    meets[parent] = meet
                new_state.setdefault(
                    (parent, fc or t < meets[parent], fd or t < last_off[parent]),
                    t * scale + position,
                )
        yield new_state
        state = new_state
        scale *= p


@memoised
def ly_witness(subst):
    """First (in alphabet order of targets) minimal witness for the
    Li-Yorke existence criterion, or None: the target pair (a, b) as
    letter indices, the minimal level m at which it occurs inside its own
    m-fold pair image with both a coincidence and a difference after it,
    and the position of that occurrence in σ^m(a) × σ^m(b), carried by the
    search.

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
    for level, state in enumerate(_ly_levels(subst, target)):
        if hit in state:
            return divmod(target, layer.n), level, state[hit]
        if level >= bound:
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


class LyCertificate(namedtuple("LyCertificate", "power a b position u v u2 v2")):
    """Witness for the existence criterion: at ``power`` applications the
    letters ``a`` and ``b`` reoccur aligned at position ``position`` with
    suffix words ``v``/``v2`` that differ and share a coincidence."""

    __slots__ = ()

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


def _certificate_words(subst, a, b, power):
    """The ``power``-fold images of the internal letters ``a`` and ``b``;
    a power whose words exceed ``CERTIFICATE_WORD_CAP`` is refused."""
    message = f"certificate words at power {power} exceed the word cap"
    charge(subst.constant_length**power, CERTIFICATE_WORD_CAP, message)
    return iterate_chr(subst, a, power), iterate_chr(subst, b, power)


def li_yorke_certificate(subst):
    wit = ly_witness(subst)
    if wit is None:
        return None
    (ai, bi), level, position = wit
    ua, ub = _certificate_words(subst, chr(ai), chr(bi), level)
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


DoubleCertificate = namedtuple("DoubleCertificate", "power a b first second")
DoubleCertificate.__doc__ = """Witness for the uncountability condition:
two aligned occurrences of (a, b) at ``first``/``second`` inside the
``power``-fold images, with a coincidence after the first."""


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
    for m in itertools.count(1):
        ua, ub = _certificate_words(subst, a, b, m)
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


class PairVerdict(namedtuple("PairVerdict", "kind rule strong", defaults=(None,))):
    __slots__ = ()

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


ConstructedPair = namedtuple("ConstructedPair", "x y letters certificate")


def _lambda_periodic_predecessor(subst, letter_chr, power):
    """A letter c on a cycle of the last-letter map λ with ``c letter`` in
    the language: the first predecessor of the letter in L_2, moved by
    λ^power until it lands on a cycle.

    Every letter has a predecessor: the subshift of a primitive σ is
    minimal, so each of its letters has a left neighbour in L_2.  λ maps the n letters into
    themselves, so n applications land on a cycle, and a witness level
    ``power`` is at least 1, so the walk ends.  The letter heads its own
    ``power``-fold image (its chain has all digits zero), and the boundary
    map B(c d) = last(σ(c)) first(σ(d)) keeps L_2, so B^power(c letter) =
    λ^power(c) letter stays in the language at every step; the
    seed-junction check of the ``RepresentedPoint`` constructor refuses
    any seed that does not."""
    s = subst
    lang2 = language_chr(s, 2)
    lam = last_letter_map(s)
    c = next(chr(c) for c in range(s.size) if chr(c) + letter_chr in lang2)
    while cycle_length(lam, ord(c)) is None:
        for _ in range(power):
            c = chr(lam[ord(c)])
    return c


def _digits(position, p, count):
    """The ``count`` lowest base-``p`` digits of ``position``, least
    significant first: the level chain of that position."""
    return [position // p**i % p for i in range(count)]


def construct_ly_pair(subst):
    """The explicit Li-Yorke pair built from the existence certificate:
    both points repeat the level chain of its position; when the
    occurrence sits at position zero the left tails come from periodic
    predecessor letters."""
    cert = li_yorke_certificate(subst)
    if cert is None:
        raise PreconditionError("the substitution has no Li-Yorke pairs")
    s = subst
    a, b = chr(s.index(cert.a)), chr(s.index(cert.b))
    digits = _digits(cert.position, s.constant_length, cert.power)
    ex, ey = _entries_below(s, a, digits), _entries_below(s, b, digits)
    if cert.position:
        cseed = dseed = None
    else:
        cseed = _lambda_periodic_predecessor(s, a, cert.power)
        dseed = _lambda_periodic_predecessor(s, b, cert.power)
    x = RepresentedPoint(s, (), ex, cseed, None)
    y = RepresentedPoint(s, (), ey, dseed, None)
    return ConstructedPair(x, y, (cert.a, cert.b), cert)


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
    cert = uncountable_certificate(subst)
    if cert is None:
        raise PreconditionError("recurrent pair needs the double-occurrence condition")
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
    digits = _digits(j1, p, m) + _digits(j2, p, m)
    x = RepresentedPoint(s, (), _entries_below(s, a, digits), None, None)
    y = RepresentedPoint(s, (), _entries_below(s, b, digits), None, None)
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
    with the letter pairs right of t_i in the pair image of q_(i+1) as
    its suffix pairs at level i, the labels of the cycle.  Each seed choice is listed.  This lists exactly
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
    n, parents, positions, component = layer.n, layer.parents, layer.positions, layer.component

    def inner(q):
        steps = zip(parents[q], positions[q])
        return next(step for step in steps if component[step[0]] == component[q])

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
        digits = [t for _, t in chain]
        a, b = divmod(chain[-1][0], n)
        ex, ey = _entries_below(s, chr(a), digits), _entries_below(s, chr(b), digits)
        seeds_x = _seed_choices(s, digits, ex[0].center)
        seeds_y = _seed_choices(s, digits, ey[0].center)
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
