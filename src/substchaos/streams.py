"""Constructive representation of subshift points by their desubstitution
data.

A point is stored as an eventually periodic sequence of levels, one per
application of the substitution: level ``i`` holds the image block
``prefix_i + center_i + suffix_i`` of the level-``i+1`` center letter,
with the digit ``len(prefix_i)`` recording where the lower center sits
inside that block.  Consecutive levels must satisfy

    image(center_{i+1}) == prefix_i + center_i + suffix_i .

When every period prefix is empty the data only determines the point to
the right of a finite stretch; a ``left_seed`` letter ``c`` whose
iterated image eventually ends in ``c`` supplies the missing
left-infinite tail ``lim image^(t*r)(c)``, anchored at the level where
the period starts (the limit depends only on the letter, not on the
fixing power used).  The symmetric statement holds for ``right_seed``.
Both sides can never collapse at the same time.

A window ``x(-r .. r)`` is one slice of ``image^K(W_K)``, where the
level-``K`` word ``W_K`` is the center at level ``K`` with the seed
letters that belong beside it, for the first level ``K`` at or past the
preperiod whose word covers the window (``_expand``).  The slice is built
top-down, so the work is linear in the window plus the number of levels,
and only a window larger than the word budget is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BudgetExceededError,
    InvariantError,
    PreconditionError,
    StreamChainError,
)
from .odometer import OdometerDigits, _canonical
from .reduction import decide_infinite
from .substitution import (
    DEFAULT_WORD_BUDGET,
    Substitution,
    cycle_length,
    first_letter_map,
    is_primitive,
    is_public_word,
    iterate_slice,
    json_word,
    language_chr,
    last_letter_map,
)

SHIFT_BUDGET = 10**6


@dataclass(frozen=True, order=True)
class StreamEntry:
    """One desubstitution level: the image block of the next level's
    center, split around this level's center (all chr-coded)."""

    prefix: str
    center: str
    suffix: str

    @property
    def digit(self):
        return len(self.prefix)

    @property
    def block(self):
        return self.prefix + self.center + self.suffix


def _entries_below(subst, letter, digits):
    """The entries of levels 0 .. len(digits) - 1 under the center
    ``letter`` of level ``len(digits)``, low level first: ``digits[i]``
    cuts the image of the level-(i+1) center into the entry of level i."""
    entries = []
    for d in reversed(digits):
        block = subst.images[ord(letter)]
        letter = block[d]
        entries.append(StreamEntry(block[:d], letter, block[d + 1 :]))
    return tuple(reversed(entries))


def _require_recognizable(subst):
    """Check the domain on which canonical fields identify points:
    constant length, one-to-one, primitive, infinite subshift.

    On this domain two points are equal exactly when their canonical
    fields are:

    1. Equal fields give equal expansions: the expansion reads nothing else.
    2. Primitive with an infinite subshift means aperiodic, hence
       bilaterally recognizable (Mosse 1992; a computable constant in
       Durand-Leroy 2017): a point is ``S^d image(y)`` for exactly one cut
       ``0 <= d < p`` and, the images being pairwise distinct, exactly one
       point ``y``.  Level by level, every digit and center letter is a
       function of the point, and so is every entry (the image of the next
       center, cut at the digit).
    3. With equal entries, a left seed is present in both points or in
       neither (exactly when every period prefix is empty).  A left seed
       ``c`` at anchor level ``k`` puts ``lambda^k(c)`` (``lambda`` the
       last-letter map) at position ``-1 - sum(digit_i * p^i, i < k)``,
       the same for both points; seeds lie on cycles of ``lambda``, where
       ``lambda^k`` is injective, so the seeds agree.  Right seeds follow
       with the first-letter map.
    4. The ``RepresentedPoint`` constructor gives an eventually periodic
       entry sequence its unique form with the shortest preperiod and a
       primitive period, so equal entries give equal preperiods, periods
       and anchor levels.
    """
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


@dataclass(frozen=True, slots=True)
class RepresentedPoint:
    """A subshift point given by its desubstitution levels; immutable.

    The constructor checks the level chain and the seeds, then stores the
    canonical form: the shortest preperiod and a primitive period of the
    entries (``odometer._canonical``).  Each entry absorbed into the period
    moves the seed anchor one level down, so seed letters follow their
    letter maps forward to keep the represented tails unchanged, and the
    checks run again on the moved form.  Equal fields mean equal points
    (``_require_recognizable``), so the dataclass equality and hash are
    those of points."""

    subst: Substitution
    preperiod: tuple[StreamEntry, ...]
    period: tuple[StreamEntry, ...]
    left_seed: str | None
    right_seed: str | None

    def __post_init__(self):
        s = self.subst
        p = s.constant_length
        if p is None or p < 2:
            raise PreconditionError("streams require constant length >= 2")
        if not self.period:
            raise InvariantError("period must be nonempty")
        entries = list(self.preperiod) + list(self.period)
        for i, e in enumerate(entries):
            if len(e.center) != 1 or len(e.block) != p:
                raise StreamChainError("entry has wrong block size", i)
        k = len(self.preperiod)
        L = len(self.period)
        for i in range(k + L):
            nxt = entries[i + 1] if i + 1 < k + L else self.period[0]
            if s.images[ord(nxt.center)] != entries[i].block:
                raise StreamChainError(
                    "image of the upper center does not match the block", i
                )
        left_needed = all(e.prefix == "" for e in self.period)
        right_needed = all(e.suffix == "" for e in self.period)
        if left_needed and right_needed:
            raise InvariantError("period cannot have all-empty prefixes and suffixes")
        if left_needed != (self.left_seed is not None):
            raise InvariantError(
                "left_seed required exactly when all period prefixes are empty"
            )
        if right_needed != (self.right_seed is not None):
            raise InvariantError(
                "right_seed required exactly when all period suffixes are empty"
            )
        anchor = self.period[0].center
        if self.left_seed is not None:
            c = self.left_seed
            if cycle_length(last_letter_map(s), ord(c)) is None:
                raise InvariantError("left seed is not on a cycle of the last-letter map")
            if c + anchor not in language_chr(s, 2):
                raise InvariantError("left seed junction word is not in the language")
        if self.right_seed is not None:
            d = self.right_seed
            if cycle_length(first_letter_map(s), ord(d)) is None:
                raise InvariantError("right seed is not on a cycle of the first-letter map")
            if anchor + d not in language_chr(s, 2):
                raise InvariantError("right seed junction word is not in the language")
        pre, per = _canonical(self.preperiod, self.period)
        if (pre, per) == (self.preperiod, self.period):
            return
        moved = k - len(pre)
        left, right = self.left_seed, self.right_seed
        if left is not None:
            left = _step(last_letter_map(s), left, moved)
        if right is not None:
            right = _step(first_letter_map(s), right, moved)
        canonical = {"preperiod": pre, "period": per, "left_seed": left, "right_seed": right}
        for name, value in canonical.items():
            object.__setattr__(self, name, value)
        self.__post_init__()

    # -- digits -----------------------------------------------------------

    def entry(self, i):
        k = len(self.preperiod)
        if i < k:
            return self.preperiod[i]
        return self.period[(i - k) % len(self.period)]

    def digit(self, i):
        return self.entry(i).digit

    def odometer_digits(self):
        return OdometerDigits(
            self.subst.constant_length,
            tuple(e.digit for e in self.preperiod),
            tuple(e.digit for e in self.period),
        )

    def pi_digits(self, count):
        """The first ``count`` digits of the odometer image of the point."""
        if count < 0:
            raise PreconditionError("digit count must be >= 0")
        return [self.digit(i) for i in range(count)]

    # -- expansion ----------------------------------------------------------

    def expand(self, radius, budget=DEFAULT_WORD_BUDGET):
        """The centered window ``x(-radius .. radius)`` as an internal
        chr-coded string of length ``2*radius + 1``."""
        if radius < 0:
            raise PreconditionError("radius must be >= 0")
        if 2 * radius + 1 > budget:
            raise BudgetExceededError("expansion exceeds the word budget")
        return _expand(self, radius)

    def window(self, radius):
        """Public-form rendering of the centered window."""
        return self.subst.decode(self.expand(radius))

    # -- dynamics -----------------------------------------------------------

    def shift(self):
        """The image under the shift map (the odometer carry on digits)."""
        return _shifted_stream(self)

    def shift_by(self, count, budget=SHIFT_BUDGET):
        if count < 0:
            raise PreconditionError("shift count must be >= 0")
        if count > budget:
            raise BudgetExceededError(f"shift count {count} exceeds budget {budget}")
        point = self
        for _ in range(count):
            point = point.shift()
        return point

    # -- literals -------------------------------------------------------------

    def to_literal(self):
        s = self.subst

        def word(w):
            return json_word(s.decode(w))

        def triple(e):
            return [word(e.prefix), word(e.center), word(e.suffix)]

        return {
            "kind": "stream",
            "preperiod": [triple(e) for e in self.preperiod],
            "period": [triple(e) for e in self.period],
            "left_seed": None if self.left_seed is None else word(self.left_seed),
            "right_seed": None if self.right_seed is None else word(self.right_seed),
        }

    def __repr__(self):
        lit = self.to_literal()
        return (
            f"RepresentedPoint(pre={lit['preperiod']}, per={lit['period']}, "
            f"seeds=({lit['left_seed']}, {lit['right_seed']}))"
        )


# ---------------------------------------------------------------------------
# expansion internals


def _step(mapping, letter, times):
    """``letter`` moved ``times`` steps along the letter map ``mapping``."""
    code = ord(letter)
    for _ in range(times):
        code = mapping[code]
    return chr(code)


def _step_back(mapping, letter, times):
    """``letter`` stepped back ``times`` steps along its cycle of
    ``mapping``."""
    return _step(mapping, letter, -times % cycle_length(mapping, ord(letter)))


def _expand(point, radius):
    """The window ``x(-radius .. radius)``, sliced from one iterate.

    Let ``k`` be the preperiod length, ``c_K`` the center at level ``K``
    and ``D_K = sum(digit_i * p^i, i < K)``.  The block ``image^K(c_K)``
    covers the positions ``[-D_K, p^K - D_K)``.  A left seed ``c`` (every
    period digit 0, so ``D_K = D_k`` for ``K >= k``) supplies the tail
    left of ``-D_k``: the limit of ``image^e(c)`` over ``e = k`` modulo
    the cycle length of ``c`` under the last-letter map ``lambda``.  For
    ``K >= k`` its last ``p^K`` letters are ``image^K`` of
    ``lambda^(e-K)(c)``, the seed stepped back ``K - k`` times along its
    cycle.  A right seed supplies the tail right of ``p^k - D_k`` in the
    same way, with the first-letter map and prefixes.  So the level-``K``
    word ``W_K`` (left seed letter, center, right seed letter) expands to
    a stretch of the point with position 0 at index ``D_K``, plus ``p^K``
    with a left seed, and the window is a slice of ``image^K(W_K)``.

    The first level ``K >= k`` whose word covers the window is taken, and
    it exists.  Without a left seed some period prefix is nonempty, so a
    period digit is > 0 and ``D_K`` grows without bound; with one, the
    ``p^K`` letters of the seed lie left of position 0.  Without a right
    seed a period digit is < p - 1, so ``p^K - D_K = 1 + sum((p - 1 -
    digit_i) * p^i, i < K)`` grows without bound; with one, ``p^K``
    letters lie right of the block.  ``iterate_slice`` then produces about
    ``(2 * radius + 1) * p / (p - 1) + 2 * p * K`` letters.
    """
    s = point.subst
    p = s.constant_length
    k = len(point.preperiod)
    left, right = point.left_seed, point.right_seed
    letters = 1 + (left is not None) + (right is not None)
    level, offset, size = 0, 0, 1
    while True:
        start = offset + (0 if left is None else size)
        if level >= k and radius <= start and start + radius < letters * size:
            break
        offset += point.digit(level) * size
        size *= p
        level += 1
    word = point.entry(level).center
    if left is not None:
        word = _step_back(last_letter_map(s), left, level - k) + word
    if right is not None:
        word += _step_back(first_letter_map(s), right, level - k)
    return iterate_slice(s, word, level, start - radius, start + radius + 1)


# ---------------------------------------------------------------------------
# the odometer carry on streams


def _first_letter_period(subst, d):
    """The all-zero-digit period along the first-letter cycle of ``d``: its
    right side is the limit of the iterated images of ``d``, with ``d`` at
    the origin."""
    cyc = cycle_length(first_letter_map(subst), ord(d))
    return _entries_below(subst, d, (0,) * cyc)


def _past_right_end(point):
    """The point ``R = p^k - D_k`` shifts on from a point with a right
    seed ``d``, where ``k`` is the preperiod length, ``c_k`` the center at
    level ``k`` and ``D_k = sum(digit_i * p^i, i < k)``: the all-zero-digit
    point with left seed ``lambda^k(c_k)`` and the first-letter period of
    ``phi^k(d)`` (``lambda``, ``phi`` the last- and first-letter maps).

    Every period digit is p - 1, so ``D_K = D_k + p^K - p^k`` for ``K >=
    k`` and the block ``image^K(c_K)`` covers ``[-D_K, R)``: its right end
    stays at ``R - 1`` while its left end runs off to minus infinity.
    From ``R`` on lies the right seed tail, whose first ``p^K`` letters
    are ``image^K(phi^-(K-k)(d)) = image^K(phi^-K(d'))`` with ``d' =
    phi^k(d)`` (see ``_expand``).  After ``R`` shifts that tail is the
    right half of the new point, and ``image^K(phi^-K(d'))`` is exactly
    the level-``K`` block of the first-letter period of ``d'``, whose
    level-``K`` center is ``phi^-K(d')``.  The left half is what lies left
    of ``R``, the limit of ``image^K(c_K)``.  With ``L`` the period length
    and ``K = k + tL``, ``c_K = c_k`` and ``image^K(c_k) =
    image^(tL)(image^k(c_k))`` ends in ``image^(tL)(c')``, ``c' =
    lambda^k(c_k)``.  A period digit p - 1 makes each period center the
    last letter of the image above it, so ``lambda^L(c_k) = c_k``: ``c_k``
    and ``c'`` lie on a cycle of ``lambda``, and the limit of
    ``image^(tL)(c')`` is the tail of the left seed ``c'`` anchored at
    level 0.  The junction word ``c' d'`` is the word at positions ``R -
    1, R`` of the point, so it lies in the language.  With every digit
    p - 1, ``R = 1``: this is the successor of the all-(p-1) fiber.
    """
    s = point.subst
    k = len(point.preperiod)
    left = _step(last_letter_map(s), point.period[0].center, k)
    right = _step(first_letter_map(s), point.right_seed, k)
    return RepresentedPoint(s, (), _first_letter_period(s, right), left, None)


def _shifted_stream(point):
    s = point.subst
    p = s.constant_length
    k = len(point.preperiod)
    L = len(point.period)
    istar = next((i for i in range(k + L) if point.digit(i) != p - 1), None)
    if istar is None:
        return _past_right_end(point)

    # The carry: digit + 1 at level istar and 0 below it, cut under the
    # unchanged center of level istar + 1.
    digits = (0,) * istar + (point.digit(istar) + 1,)
    new_entries = _entries_below(s, point.entry(istar + 1).center, digits)

    if istar < k:
        preperiod = new_entries + point.preperiod[istar + 1 :]
        return RepresentedPoint(s, preperiod, point.period, point.left_seed, point.right_seed)

    # The carry reached position j of the first period pass: the modified
    # levels move into the preperiod and the period rotates accordingly.
    j = istar - k
    preperiod = new_entries
    period = point.period[j + 1 :] + point.period[: j + 1]
    left = point.left_seed
    if left is not None:
        # only reachable with j == 0 (an all-zero period makes the first
        # period digit the carry target); the anchor moved one level up,
        # so the seed letter steps backwards along its last-letter cycle
        if j != 0:
            raise InvariantError("left seed with a carry past the first period level")
        left = _step_back(last_letter_map(s), left, 1)
    if point.right_seed is not None:
        raise InvariantError("right seed with a digit below p-1 in the period")
    return RepresentedPoint(s, preperiod, period, left, None)


# ---------------------------------------------------------------------------
# constructors


def _encode_letter(subst, token):
    if isinstance(token, str) and token in subst.alphabet:
        return chr(subst.index(token))
    raise PreconditionError(f"expected a single alphabet letter, got {token!r}")


def _encode_entries(subst, triples):
    if not isinstance(triples, (list, tuple)):
        raise PreconditionError("stream levels must be a list of [prefix, center, suffix] triples")
    entries = []
    for triple in triples:
        if not (
            isinstance(triple, (list, tuple))
            and len(triple) == 3
            and all(is_public_word(part) for part in triple)
        ):
            raise PreconditionError(
                f"expected a [prefix, center, suffix] triple of words, got {triple!r}"
            )
        entries.append(StreamEntry(*(subst.encode(part) for part in triple)))
    return tuple(entries)


def stream_from_entries(subst, preperiod, period, left_seed=None, right_seed=None):
    """Build a point from public triples ``[prefix, center, suffix]``."""
    pre = _encode_entries(subst, preperiod)
    per = _encode_entries(subst, period)
    ls = None if left_seed is None else _encode_letter(subst, left_seed)
    rs = None if right_seed is None else _encode_letter(subst, right_seed)
    return RepresentedPoint(subst, pre, per, ls, rs)


def stream_from_fixed_point(subst, left, right):
    """The two-sided limit point with all-zero digits: left tail the
    iterated-image limit of ``left``, right side the iterated-image limit
    of ``right``."""
    s = subst
    lc = _encode_letter(s, left)
    rc = _encode_letter(s, right)
    if lc + rc not in language_chr(s, 2):
        raise PreconditionError("seed pair is not a word of the language")
    if cycle_length(last_letter_map(s), ord(lc)) is None:
        raise PreconditionError(
            f"no power up to the alphabet size fixes the last letter for {left!r}"
        )
    if cycle_length(first_letter_map(s), ord(rc)) is None:
        raise PreconditionError(
            f"no power up to the alphabet size fixes the first letter for {right!r}"
        )
    return RepresentedPoint(s, (), _first_letter_period(s, rc), lc, None)


def point_from_literal(subst, doc):
    """Point literal: ``{"kind": "fixed_point", "left": ..., "right": ...}``
    or ``{"kind": "stream", "preperiod": [...], "period": [...], ...}``
    with ``[prefix, center, suffix]`` triples."""
    if not isinstance(doc, dict):
        raise PreconditionError("a point literal must be a JSON object")
    kind = doc.get("kind")
    required = {"fixed_point": ("left", "right"), "stream": ("period",)}
    if not isinstance(kind, str) or kind not in required:
        raise PreconditionError(f"unknown point literal kind {kind!r}")
    missing = [key for key in required[kind] if key not in doc]
    if missing:
        raise PreconditionError(f"{kind} point literal lacks {', '.join(missing)}")
    if kind == "fixed_point":
        return stream_from_fixed_point(subst, doc["left"], doc["right"])
    return stream_from_entries(
        subst,
        doc.get("preperiod", []),
        doc["period"],
        doc.get("left_seed"),
        doc.get("right_seed"),
    )


# ---------------------------------------------------------------------------
# fibers of the odometer factor map


def fiber_bound(subst):
    """Upper bound for fiber sizes of the odometer factor map: the number
    of length-3 words of the subshift."""
    if not is_primitive(subst):
        raise PreconditionError("fiber bound requires a primitive substitution")
    if subst.constant_length is None:
        raise PreconditionError("fiber bound requires constant length")
    if not decide_infinite(subst):
        raise PreconditionError("fiber bound requires an infinite subshift")
    return len(language_chr(subst, 3))


def _seed_choices(subst, period_digits, anchor):
    """The admissible ``(left seed, right seed)`` choices for a stream with
    these period digits whose period starts at the center ``anchor``: a
    left seed when every digit is 0, a right seed when every digit is p-1,
    no seed otherwise."""
    lang2 = language_chr(subst, 2)
    if all(d == 0 for d in period_digits):
        lam = last_letter_map(subst)
        return [
            (chr(c), None)
            for c in range(subst.size)
            if cycle_length(lam, c) is not None and chr(c) + anchor in lang2
        ]
    if all(d == subst.constant_length - 1 for d in period_digits):
        first = first_letter_map(subst)
        return [
            (None, chr(c))
            for c in range(subst.size)
            if cycle_length(first, c) is not None and anchor + chr(c) in lang2
        ]
    return [(None, None)]


def enumerate_fiber(subst, digits, radius=64):
    """All representable points whose odometer image equals ``digits``.

    The digit sequence forces the whole level chain once the letter at one
    level is chosen, so walking one digit period downwards is a map on
    letters and eventually periodic points correspond to its cycles (plus
    a choice of seed when one side of the data collapses).  Two choices
    differ in the center letter at the level where the period starts or in
    the seed, both functions of the point (see ``_require_recognizable``),
    so no point is listed twice.  ``radius`` is unused and kept for
    callers that pass it.
    """
    _require_recognizable(subst)
    s = subst
    p = s.constant_length
    if digits.base != p:
        raise PreconditionError("digit base does not match the substitution length")
    pre_digits = digits.preperiod
    per_digits = digits.period

    # the letter one digit period below each letter
    down = tuple(
        ord(_entries_below(s, chr(ci), per_digits)[0].center) for ci in range(s.size)
    )
    points = []
    for ci in range(s.size):
        cyc = cycle_length(down, ci)
        if cyc is None:
            continue
        c = chr(ci)
        period_entries = _entries_below(s, c, per_digits * cyc)
        pre_entries = _entries_below(s, c, pre_digits)
        for ls, rs in _seed_choices(s, per_digits, c):
            points.append(RepresentedPoint(s, pre_entries, period_entries, ls, rs))
    # stable, and ``_seed_choices`` lists the seeds of one center in
    # alphabet order
    return sorted(points, key=lambda pt: (pt.preperiod, pt.period))
