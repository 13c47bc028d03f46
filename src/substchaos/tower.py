"""The inverse-limit family of three-letter-image substitutions: levels,
projection maps between consecutive levels, the distinguished points, and
desk-scale verification that the distinguished family is scrambled.

The inverse-limit space itself is never materialized; every claim is
checked levelwise on finite windows, which is sound for finite-horizon
evidence because the product topology is determined coordinatewise.

Level n is σ_n on the letters 0..n, a ↦ a 0 min(a+1, n).  Three facts
hold at every level n >= 1, so nothing here checks them at run time
(``classify_pair`` and the ``RepresentedPoint`` constructor still do):

1. σ_n is primitive.  Its letter graph, a -> b for each b in σ_n(a), has
   the edges a -> 0 and a -> min(a+1, n), so 0 reaches every letter and
   every letter reaches 0: it is strongly connected.  The self-loop
   0 -> 0 (0 ↦ 0 0 1) makes its period 1, and a letter graph that is
   strongly connected with period 1 is that of a primitive substitution
   (Perron–Frobenius; see ``substitution.is_primitive``).
2. The subshift is infinite.  The images are pairwise distinct (σ_n(a)
   starts with a), so σ_n is its own one-to-one reduction, and 0 has the
   two followers 0 and 1 in σ_n(0) = 0 0 1: a letter with two right
   extensions in L_2 (``reduction.decide_infinite``).
3. Every two-letter word is in L_2.  "0 d" is a factor of σ_n(d-1) for
   d >= 1 and of σ_n(0) for d = 0, and the boundary map
   B(c d) = last(σ_n(c)) first(σ_n(d)), which keeps L_2, sends "k d" to
   "min(k+1, n) d".  So "k d" is in L_2 for all k and d; in particular
   the companion seed junction "m (n-1)" of ``tower_point_y``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import PreconditionError
from .pairs import PairClass, classify_pair
from .simulate import empirical_class
from .streams import RepresentedPoint, StreamEntry
from .substitution import Substitution, _covering_words


def tower_substitution(n):
    """Level ``n``: alphabet 0..n, each letter maps to itself, zero, then
    its successor (capped at the top letter).  Primitive with an infinite
    subshift at every level (module docstring)."""
    if n < 1:
        raise PreconditionError("tower levels start at 1")
    alphabet = tuple(str(a) for a in range(n + 1))
    images = tuple(chr(a) + chr(0) + chr(min(a + 1, n)) for a in range(n + 1))
    return Substitution(alphabet, images)


def rho(n, word):
    """Letterwise projection from level ``n+1`` words to level ``n``:
    identity except that the top letter drops by one."""
    upper = tower_substitution(n + 1)
    codes = "".join(chr(upper.index(t)) for t in word)
    return tower_substitution(n).decode(rho_chr(n, codes))


def rho_chr(n, chrword):
    """``rho`` on a chr-coded level-``n+1`` word."""
    return chrword.translate({n + 1: n})


def tower_point_x(n):
    """The level-``n`` point with the top letter at the origin followed by
    ``0 n`` forever (all-zero digits, top-letter left tail)."""
    s = tower_substitution(n)
    entry = StreamEntry("", chr(n), chr(0) + chr(n))
    return RepresentedPoint(s, (), (entry,), chr(n), None)


def tower_point_y(m, n):
    """The level-``m`` companion point: letter ``n-1`` at the origin,
    the same ``0 n`` suffix data, and the top-letter left tail (its seed
    junction ``m (n-1)`` is in L_2 by the module docstring)."""
    if not (m >= n >= 1):
        raise PreconditionError("companion points need m >= n >= 1")
    entry = StreamEntry("", chr(n - 1), chr(0) + chr(n))
    return RepresentedPoint(tower_substitution(m), (), (entry,), chr(m), None)


def element_component(n, level):
    """Level component of the ``n``-th member of the distinguished family:
    the canonical point below ``n``, the companion from ``n`` upwards."""
    if level < n:
        return tower_point_x(level)
    return tower_point_y(level, n)


TowerMatrixEntry = namedtuple(
    "TowerMatrixEntry",
    "first second level verdict rule proximality_count separation_count max_last_difference",
)


class TowerReport(namedtuple("TowerReport", "depth horizon entries")):
    __slots__ = ()

    @property
    def has_distal(self):
        return any(e.verdict == PairClass.DISTAL.value for e in self.entries)

    def to_json(self):
        entries = [e._asdict() for e in self.entries]
        return dict(self._asdict(), has_distal=self.has_distal, entries=entries)

    def table(self):
        header = f"{'pair':>10} {'level':>5} {'verdict':>12} {'prox':>6} {'sep':>6}"
        lines = [header]
        for e in self.entries:
            lines.append(
                f"({e.first},{e.second}) ".rjust(11)
                + f"{e.level:>4} {e.verdict:>12} {e.proximality_count:>6} {e.separation_count:>6}"
            )
        return "\n".join(lines)


def verify_scrambled_S(depth, horizon):
    """Levelwise verdicts for all pairs of the first ``depth`` members of
    the distinguished family, with simulator evidence at ``horizon``.

    Every level substitution has overall coincidences, so the exact
    classifier applies throughout; the expected pattern is asymptotic at
    the level where the two members branch and Li-Yorke at every other
    level where they differ.  Each member's component is built once per
    level, depth·(depth+2) points in all.
    """
    if depth < 2:
        raise PreconditionError("depth must be >= 2")
    members = range(2, depth + 2)
    levels = range(1, depth + 3)
    points = {(n, level): element_component(n, level) for n in members for level in levels}
    entries = []
    for na, nb in itertools.combinations(members, 2):
        for level in levels:
            pa, pb = points[na, level], points[nb, level]
            if pa == pb:
                continue
            verdict = classify_pair(pa, pb)
            ev = empirical_class(pa, pb, horizon)
            entries.append(
                TowerMatrixEntry(
                    first=na,
                    second=nb,
                    level=level,
                    verdict=verdict.kind.value,
                    rule=verdict.rule,
                    proximality_count=ev.proximality_count,
                    separation_count=ev.separation_count,
                    max_last_difference=ev.max_last_difference,
                )
            )
    return TowerReport(depth, horizon, tuple(entries))


# ---------------------------------------------------------------------------
# window preimages under the level projection


def preimage_candidates(n, window_chr, core_radius=None):
    """Words over the level-``n+1`` alphabet that project to the given
    level-``n`` window and belong to the level-``n+1`` language, counted
    up to agreement on the central core.

    The level-``n+1`` words of the window's length are the factors of the
    covering words ``σ^m(c)σ^m(d)`` that start inside ``σ^m(c)``
    (``substitution._covering_words``), so each covering word is
    projected once through ρ, and each hit of the window at such a start
    is kept.

    A finite window cannot constrain its own tails (a word that only looks
    like a left-infinite limit tail may legally occur elsewhere in the
    subshift), so candidates that differ only towards the window ends are
    the same evidence; the search pins the central core.  The default core
    keeps one ninth of the window radius.
    """
    if n < 1:
        raise PreconditionError("tower levels start at 1")
    upper = tower_substitution(n + 1)
    m = len(window_chr)
    found = set()
    for lead, u in _covering_words(upper, m):
        projected = rho_chr(n, u)
        i = projected.find(window_chr, 0, lead + m - 1)
        while i >= 0:
            found.add(u[i : i + m])
            i = projected.find(window_chr, i + 1, lead + m - 1)
    words = sorted(found)
    mid = (m - 1) // 2
    if core_radius is None:
        core_radius = max(1, mid // 9)
    if core_radius >= mid:
        return words
    seen = {}
    for w in words:
        seen.setdefault(w[mid - core_radius : mid + core_radius + 1], w)
    return [seen[key] for key in sorted(seen)]
