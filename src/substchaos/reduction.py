"""One-to-one reduction of substitutions and the decision procedure for
finiteness of the generated subshift.

At constant length the finiteness verdict is polynomial: after the
one-to-one reduction the subshift is infinite exactly when some letter
has two distinct one-letter right extensions in the language (the proof
is in the docstring of ``decide_infinite``).  Every decision path reads
this rule.

The decision trace, which ``analyze`` and ``decide`` print, alternates
two steps: if the substitution is elementary, the subshift is infinite
exactly when some letter has two right extensions; otherwise it factors
through a strictly smaller alphabet as ``g . f`` and the question is
delegated to ``f . g`` on that alphabet.  The alphabet shrinks at every
round, so the loop ends.  Its verdict is the only one for
variable-length input.

The simplification search is bounded by linear algebra.  Write ``M_s``
for the incidence matrix of a morphism (column ``a`` counts the letters
of the image of ``a``).  If ``s = g . f`` through an alphabet ``B`` then
``M_s = M_g . M_f``, so ``rank M_s <= |B|``: a dictionary needs at least
``rank M_s`` words, and a substitution of full rank is elementary.  The
rank is taken over GF(q), q = 2^61 - 1 (``_RANK_PRIME``), so the
entries of the elimination stay below q; a minor that is nonzero modulo q
is nonzero, so this rank never exceeds the rational one and every bound
drawn from it is exact.

Below full rank each search builds one word table (``_WordTable``) that
every dictionary size reads: prefix sums, over the images' letters, of a
basis of the vectors orthogonal to the images' count vectors, and the
images each word the walk places starts and ends, stored the first time
it is placed.  A word's counts lie outside the span of the images'
counts exactly when one of these sums differs at the word's two ends
(proof in ``_cover``), so a candidate of the search costs a few dict
reads and comparisons.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import substitution
from .errors import PreconditionError, SearchBudgetError, charge
from .substitution import (
    Substitution,
    is_primitive,
    json_word,
    language_chr,
    memoised,
)

# The most candidates the simplification search spends: a fixed limit,
# not a default that a caller can raise.
SIMPLIFIABILITY_BUDGET = 10**6
# The refusal of a search that runs out of it.
_EXHAUSTED = "simplifiability search exceeded its candidate budget"
# The prime modulus of the rank arithmetic (see the module docstring).
_RANK_PRIME = (1 << 61) - 1


ReductionResult = namedtuple("ReductionResult", "reduced letter_map steps")
ReductionResult.__doc__ = """Outcome of repeatedly merging letters with
identical images: the ``reduced`` substitution, the ``letter_map`` of
(original token, reduced token) pairs and the merge ``steps`` until the
images are pairwise distinct."""


def one_to_one_reduction(subst):
    """Merge letters with identical images (representative: earliest in
    alphabet order) until all images are pairwise distinct."""
    current = subst
    steps = 0
    codes = range(subst.size)  # the code of each original letter in ``current``
    while not current.is_injective():
        first = {}  # each distinct image -> the first letter with it
        for i, img in enumerate(current.images):
            first.setdefault(img, i)
        merged = {img: chr(j) for j, img in enumerate(first)}
        table = [merged[img] for img in current.images]
        alphabet = tuple(current.alphabet[i] for i in first.values())
        current = Substitution(alphabet, tuple(img.translate(table) for img in first))
        codes = [ord(table[c]) for c in codes]
        steps += 1
    letter_map = tuple((tok, current.alphabet[c]) for tok, c in zip(subst.alphabet, codes))
    return ReductionResult(current, letter_map, steps)


# ---------------------------------------------------------------------------
# simplifiability


Simplification = namedtuple("Simplification", "target_alphabet f g")
Simplification.__doc__ = """A factorization ``subst = g . f`` through a
smaller alphabet: ``f`` holds per source letter a word over
``target_alphabet``, ``g`` per target letter an internal word over the
source alphabet."""


def is_simplifiable(subst):
    """Search for morphisms ``f: A -> B+`` and ``g: B -> A+`` with
    ``g(f(a))`` equal to every image and ``|B| < |A|``.

    Equivalently: a dictionary of at most ``|A| - 1`` words over ``A``
    such that every image is a concatenation of dictionary words.  The
    search walks factorizations depth-first, introducing dictionary words
    in order of first use, so the reported simplification is
    deterministic.  Returns None for an elementary substitution.

    Deciding elementariness is co-NP-complete in general, so the search
    keeps its candidate budget; it only skips what a lower bound on the
    dictionary size proves empty.  The rank ``r`` of the images' count
    vectors over GF(q) is at most their rational rank, which is at most
    the size of any dictionary (``M_s = M_g . M_f``, module docstring), so
    the sizes below ``r`` hold no dictionary and the search starts at
    ``max(1, r)``; at full rank it spends no candidate and builds nothing
    more.  Within a size, ``_cover`` skips only subtrees without a
    dictionary.  The walk order is unchanged, so the result is the one the
    unpruned walk finds wherever that walk finishes, and no more
    candidates are spent.  What the walk reads of a word is computed at
    most once per search and kept in a ``_WordTable`` that every size
    searched reads.

    The segmentation is returned as ``_cover`` built it, which rebuilds
    every image: ``_cover`` places a word only where the image continues
    with it at ``pos``, advances ``pos`` by the word's length, and moves to
    the next image only when ``pos`` reaches the end of the current one.

    The outcome of the search is memoised (``_search``) with the
    candidates it spent, which are charged here, once per call, against
    ``SIMPLIFIABILITY_BUDGET``: a search that ran out of budget raises a
    fresh ``SearchBudgetError`` on every call and is walked once.
    """
    found, spent = _search(subst)
    charge(spent, SIMPLIFIABILITY_BUDGET, _EXHAUSTED, SearchBudgetError)
    return found


@memoised
def _search(subst):
    """``(simplification or None, candidates spent)``, kept in the table
    of ``subst``; the sizes searched share one count of candidates, and a
    search that passes ``SIMPLIFIABILITY_BUDGET`` stops with None and a
    count one past the budget.  The table cache keeps no exceptions, so
    the count is the value, and ``is_simplifiable`` charges it."""
    n = subst.size
    letters = [chr(a) for a in range(n)]
    basis = _echelon([image.count(ch) for ch in letters] for image in subst.images)
    sizes = range(max(1, len(basis)), n)
    if not sizes:
        return None, 0
    found, spent = _cover(_WordTable(subst.images, basis), sizes)
    if found is None:
        return None, spent
    dictionary, segmentations = found
    target = tuple(str(i) for i in range(len(dictionary)))
    f = tuple(tuple(target[idx] for idx in seg) for seg in segmentations)
    return Simplification(target, f, tuple(dictionary)), spent


def _residue(basis, vector):
    """``vector`` reduced over GF(q) by an echelon ``basis`` of
    ``(pivot, row)`` pairs, each row 1 at its pivot and 0 at the pivots
    before it; all zero exactly when ``vector`` lies in the span."""
    for pivot, row in basis:
        c = vector[pivot]
        if c:
            vector = [(x - c * y) % _RANK_PRIME for x, y in zip(vector, row)]
    return vector


def _echelon(vectors):
    """An echelon basis over GF(q) of the span of ``vectors``; its length
    is their rank."""
    basis = []
    for vector in vectors:
        residue = _residue(basis, vector)
        pivot = next((i for i, x in enumerate(residue) if x), None)
        if pivot is not None:
            inverse = pow(residue[pivot], -1, _RANK_PRIME)
            basis.append((pivot, [x * inverse % _RANK_PRIME for x in residue]))
    return basis


def _kernel(basis, n):
    """A basis over GF(q) of the vectors ``k`` of length ``n`` with
    ``v . k = 0`` for every ``v`` in the span of the echelon ``basis``:
    one per column that is no pivot.

    Each row is reduced by the rows after it, last row first, so every row
    is 1 at its pivot and 0 at every other pivot.  For a free column
    ``c``, ``k`` is 1 at ``c``, ``-row[c]`` at the pivot of each row and 0
    elsewhere; then ``row . k = row[c] - row[c] = 0`` for every row."""
    reduced = []
    for pivot, row in reversed(basis):
        reduced.append((pivot, _residue(reduced, row)))
    pivots = {pivot for pivot, _ in basis}
    kernel = []
    for c in range(n):
        if c not in pivots:
            k = [0] * n
            k[c] = 1
            for pivot, row in reduced:
                k[pivot] = -row[c] % _RANK_PRIME
            kernel.append(k)
    return kernel


class _WordTable:
    """What the search reads of the images and their words, built once per
    search below full rank, so from ``basis`` of fewer vectors than
    letters, and shared by every size it searches.

    - ``sums[j][t]``: for each vector ``k`` of ``_kernel``, the sum over
      GF(q) of ``k`` at the first ``t`` letters of image ``j``.  The slice
      ``image[pos:stop]`` has counts outside the span of the images'
      counts exactly when ``sums[j][pos] != sums[j][stop]`` (``_cover``).
    - ``marks[w]``: the bit masks of the images that the word ``w`` starts
      and ends, filled by ``mark`` the first time the walk places ``w``,
      so the table holds only the words the walk visits.
    - ``firsts(started)`` and ``lasts(ended)``: the first letters of the
      images outside the mask ``started``, and the number of distinct last
      letters of those outside ``ended``, each computed once per mask.

    So the table grows with the images' letters times ``|A| - rank`` and
    with the words the walk places, as the walk itself does.  That product
    is charged against ``substitution.DEFAULT_WORD_BUDGET`` before the
    sums are built; past it the table is refused with
    ``BudgetExceededError``.
    """

    __slots__ = (
        "images", "rank", "sums", "marks", "_by_first", "_by_last", "_firsts", "_lasts"
    )

    def __init__(self, images, basis):
        charge(
            sum(map(len, images)) * (len(images) - len(basis)),
            substitution.DEFAULT_WORD_BUDGET,
            "the simplification search would hold {} kernel sums, more than the word budget {}",
        )
        self.images = images
        self.rank = len(basis)
        kernel = _kernel(basis, len(images))
        # the prefix sums of each kernel vector over all images in a row;
        # image ``j`` reads its own stretch of them
        codes = [ord(ch) for image in images for ch in image]
        columns = [
            [s % _RANK_PRIME for s in accumulate([k[c] for c in codes], initial=0)]
            for k in kernel
        ]
        sums = list(zip(*columns))
        self.sums = []
        offset = 0
        for image in images:
            self.sums.append(sums[offset : offset + len(image) + 1])
            offset += len(image)
        self.marks, self._firsts, self._lasts = {}, {}, {}
        # first letter -> (bit, image) of the images it starts; likewise last
        self._by_first, self._by_last = {}, {}
        for j, image in enumerate(images):
            self._by_first.setdefault(image[0], []).append((1 << j, image))
            self._by_last.setdefault(image[-1], []).append((1 << j, image))

    def mark(self, w):
        """``marks[w]``, computed and stored; only the images that begin
        (end) with the first (last) letter of ``w`` are compared."""
        started = ended = 0
        for bit, image in self._by_first.get(w[0], ()):
            if image.startswith(w):
                started |= bit
        for bit, image in self._by_last.get(w[-1], ()):
            if image.endswith(w):
                ended |= bit
        self.marks[w] = started, ended
        return started, ended

    def firsts(self, started):
        if started not in self._firsts:
            self._firsts[started] = {
                image[0] for j, image in enumerate(self.images) if not started >> j & 1
            }
        return self._firsts[started]

    def lasts(self, ended):
        if ended not in self._lasts:
            self._lasts[ended] = len(
                {image[-1] for j, image in enumerate(self.images) if not ended >> j & 1}
            )
        return self._lasts[ended]


def _cover(table, sizes):
    """Depth-first search, for each ``size`` of ``sizes`` in turn, for a
    dictionary of at most ``size`` words segmenting every image of
    ``table``; returns (dictionary, segmentations) or None, with the
    candidates spent over all sizes walked.  The walk stops with None at
    the first candidate past ``SIMPLIFIABILITY_BUDGET``.

    A node is a partial segmentation: images before ``img_idx`` are
    segmented, the current one up to ``pos``, with the dictionary ``D``.
    The dictionary only grows along a path, so any dictionary below the
    node is some ``D' >= D``, and it must hold:

    - a first word for every later image, which is a prefix of it; an
      image no word of ``D`` starts needs a new one, and images with
      different first letters need different words;
    - a next word for the current rest ``image[pos:]``, new unless a word
      of ``D`` starts the rest, beginning with the rest's first letter;
    - a last word for the current and every later image, which is a
      suffix of it; an image no word of ``D`` ends needs a new one, and
      different last letters need different words.

    So ``|D'| >= |D| + max(new prefix words, new suffix words)``, counting
    distinct first letters (the rest's included) and distinct last
    letters.  When that exceeds ``size`` the subtree holds no dictionary
    and is skipped.

    Let ``V`` be the span over GF(q) of the images' count vectors, of
    rank ``r``.  Every image and every word of ``D'`` lies in ``D'*``, so
    the count vectors of the images and of ``D`` lie in the span of the
    ``|D'|`` count vectors of ``D'``, and their GF(q) rank is at most their
    rational rank, at most ``|D'|``.  A word of ``D`` outside ``V`` raises
    that rank to ``r + 1``, so when ``r + 1 > size`` the subtree is
    skipped as well.

    A word is outside ``V`` exactly when ``c . k != 0`` for some vector
    ``k`` of the kernel basis ``K`` (``_kernel``), ``c`` its count vector.
    Every ``k`` is orthogonal to ``V``, so a ``c`` in ``V`` gives 0 for
    all of them.  Conversely, ``V^⊥`` is the null space of ``r``
    independent rows, of dimension ``n - r`` over a field (rank-nullity),
    and the ``n - r`` vectors of ``K`` in it are independent (each is 1
    at its own free column and 0 at the other free columns), so
    ``K`` spans ``V^⊥``.  The same count gives ``dim (V^⊥)^⊥ = r``, and
    ``V`` lies in ``(V^⊥)^⊥``, so the two are equal: a ``c`` orthogonal to
    all of ``K`` lies in ``V``.  For the slice ``image[pos:stop]``,
    ``c . k`` is the difference of two prefix sums of ``k`` over the
    image's letters, so the test compares ``table.sums`` at ``pos`` and at
    ``stop``.

    A skipped node is still counted, so the walk visits a subsequence of
    the unpruned walk's candidates in the same order and finds the same
    first dictionary.

    Every image before the current one is started and ended by words of
    ``D`` (its first and last segments), and the current one is started
    once ``pos > 0``, so the letters may be collected over all images that
    no word of ``D`` starts or ends.  They depend on ``D`` alone and are
    kept per dictionary size on the current path, with the sets of images
    that words of ``D`` start and end as bit masks (``table.marks``); the
    letters are read again only when a placed word starts or ends an
    image no earlier word did.  Whether ``D`` holds a
    word outside ``V`` is kept along the path.

    A walk that exhausts a size undoes every move it made, so the next
    size starts from the empty dictionary and segmentations.
    """
    images = table.images
    n = len(images)
    dictionary = []
    segs = [[] for _ in images]
    marked, sums, rank = table.marks.get, table.sums, table.rank
    # per dictionary size on the current path: the images words start and
    # end, the first letters of the images no word starts, the number of
    # distinct last letters of the images no word ends, and whether a word
    # lies outside the span of the images
    unmet = [(0, 0, table.firsts(0), table.lasts(0), False)]
    spent = 0

    def moves(img_idx, pos):
        """The children of a node in walk order, none when it is skipped:
        each move places one word, yields the child and is undone when
        resumed."""
        image = images[img_idx]
        _, _, firsts, lasts, outside = unmet[-1]
        spare = size - len(dictionary)
        if rank + outside > size or max(len(firsts), lasts) > spare or (
            len(firsts) == spare
            and image[pos] not in firsts
            and not any(image.startswith(w, pos) for w in dictionary)
        ):
            return
        seg = segs[img_idx]
        for widx in range(len(dictionary)):
            w = dictionary[widx]
            if image.startswith(w, pos):
                seg.append(widx)
                yield img_idx, pos + len(w)
                seg.pop()
        if len(dictionary) < size:
            # place each new word ``w``, extending the path's entry of
            # ``unmet`` by what ``w`` starts, ends and adds to the span
            seg.append(len(dictionary))
            started, ended, _, _, _ = unmet[-1]
            image_sums = sums[img_idx]
            at_pos = image_sums[pos]
            for stop in range(pos + 1, len(image) + 1):
                w = image[pos:stop]
                if w in dictionary:
                    continue
                w_starts, w_ends = marked(w) or table.mark(w)
                w_started = started | w_starts
                w_ended = ended | w_ends
                unmet.append(
                    (
                        w_started,
                        w_ended,
                        firsts if w_started == started else table.firsts(w_started),
                        lasts if w_ended == ended else table.lasts(w_ended),
                        outside or image_sums[stop] != at_pos,
                    )
                )
                dictionary.append(w)
                yield img_idx, stop
                dictionary.pop()
                unmet.pop()
            seg.pop()

    for size in sizes:
        # the current path as a stack of move generators, not of Python
        # frames: a path places one word per level, over a thousand on
        # long images
        stack = [iter([(0, 0)])]
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            spent += 1
            if spent > SIMPLIFIABILITY_BUDGET:
                return None, spent
            img_idx, pos = node
            if img_idx == n:
                return (dictionary, segs), spent
            if pos == len(images[img_idx]):
                stack.append(iter([(img_idx + 1, 0)]))
            else:
                stack.append(moves(img_idx, pos))
    return None, spent


# ---------------------------------------------------------------------------
# finiteness of the subshift


@memoised
def biprolongeable_letters(subst):
    """The letters with at least two distinct one-letter right extensions
    in the language, as a tuple in alphabet order.  One pass over L_2 per
    cached substitution: the trace's elementary round and ``decide_infinite``
    read the same L_2 on a one-to-one input."""
    followers = {i: set() for i in range(subst.size)}
    for w in language_chr(subst, 2):
        followers[ord(w[0])].add(w[1])
    return tuple(subst.alphabet[i] for i in sorted(followers) if len(followers[i]) >= 2)


def _composed(simp):
    """The substitution ``f . g`` on the smaller alphabet."""
    f_chr = ["".join(chr(int(t)) for t in word) for word in simp.f]
    images = []
    for g_img in simp.g:
        images.append("".join(f_chr[ord(ch)] for ch in g_img))
    return Substitution(simp.target_alphabet, tuple(images))


def decide_infinite_trace(subst):
    """Exact finiteness decision with the step-by-step trace.

    Returns ``(infinite, trace)`` where the trace lists one record per
    round of the simplification loop, built afresh on every call.  Each
    round calls ``is_simplifiable``, which reads the memoised search, so a
    cached substitution is searched at most once, also when the search
    runs out of budget.

    Every composed substitution is primitive, so it is not checked again.
    If σ = g . f is primitive, every dictionary word is used by some
    segmentation (``_cover`` adds a word at its first use) and is
    nonempty, so M_f has no zero row and M_g no zero column.  With M_σ^k >
    0, (M_f M_g)^(k+1) = M_f (M_σ)^k M_g > 0, and ``f . g`` is primitive.
    An elementary round's ``language_chr`` would refuse a non-primitive
    input anyway.
    """
    if not is_primitive(subst):
        raise PreconditionError("finiteness decision requires a primitive substitution")
    trace = []
    while subst.size > 1:
        simp = is_simplifiable(subst)
        if simp is None:
            bip = biprolongeable_letters(subst)
            trace.append(
                {
                    "alphabet_size": subst.size,
                    "action": "elementary",
                    "biprolongeable": list(bip),
                    "infinite": bool(bip),
                }
            )
            return bool(bip), trace
        trace.append(
            {
                "alphabet_size": subst.size,
                "action": "simplified",
                "target_alphabet_size": len(simp.target_alphabet),
                "dictionary": [json_word(subst.decode(w)) for w in simp.g],
            }
        )
        subst = _composed(simp)
    trace.append({"alphabet_size": 1, "action": "singleton", "infinite": False})
    return False, trace


@memoised
def decide_infinite(subst):
    """True exactly when the generated subshift is infinite.

    Let σ be primitive of constant length p with pairwise distinct images.
    Then X_σ is infinite iff some letter has two right extensions in L_2
    (``biprolongeable_letters``):

    - If ``va`` and ``vb`` lie in the language with ``a != b``, then σ(a)
      and σ(b), of equal length and distinct, first differ at some
      ``l < p``, so ``σ(v)σ(a)[:l]`` is right-special of length at least
      ``p|v|``.  From one right-special letter this gives right-special
      words of unbounded length, which a periodic sequence does not have
      (Morse-Hedlund 1938), so X_σ is infinite.
    - If every letter has one follower, the follower map determines the
      sequence from its first letter, so it is periodic and X_σ finite.

    The one-to-one reduction keeps finiteness both ways.  Merging letters
    with equal images writes ``σ = ψ . φ`` and the reduction as
    ``τ = φ . ψ`` (φ the letter map, ψ the image of a representative).
    Then ``φ . σ = τ . φ`` and ``ψ . τ = σ . ψ``, so φ and ψ map the
    words of each language into the other.  So φ maps X_σ onto the
    minimal X_τ, and ψ maps a periodic point of X_τ to a periodic point of
    X_σ, whose orbit is all of the minimal X_σ.  The rule on the reduced
    substitution thus decides σ in polynomial time, with no
    simplification search.

    Variable-length input keeps the verdict of ``decide_infinite_trace``:
    ``a -> aab, b -> aabaab`` has a letter with two right extensions and
    the finite subshift of ``(aab)^∞``.
    """
    if not is_primitive(subst):
        raise PreconditionError("finiteness decision requires a primitive substitution")
    if subst.constant_length is None:
        return decide_infinite_trace(subst)[0]
    return bool(biprolongeable_letters(one_to_one_reduction(subst).reduced))

