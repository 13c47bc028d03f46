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
"""

from __future__ import annotations

from collections import namedtuple

from .errors import PreconditionError, SearchBudgetError
from .substitution import (
    Substitution,
    incidence_matrix,
    is_primitive,
    json_word,
    language_chr,
    memoised,
)

# The most candidates the simplification search spends: a fixed limit,
# not a default that a caller can raise.
SIMPLIFIABILITY_BUDGET = 10**6
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


class _Budget:
    __slots__ = ("left",)

    def __init__(self, left):
        self.left = left

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetError(
                "simplifiability search exceeded its candidate budget"
            )


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
    ``max(1, r)``; at full rank it spends no candidate.  Within a size,
    ``_cover`` skips only subtrees without a dictionary.  The walk order is
    unchanged, so the result is the one the unpruned walk finds wherever
    that walk finishes, and no more candidates are spent.

    The segmentation is returned as ``_cover`` built it, which rebuilds
    every image: ``_cover`` places a word only where the image continues
    with it at ``pos``, advances ``pos`` by the word's length, and moves to
    the next image only when ``pos`` reaches the end of the current one.
    """
    n = subst.size
    images = list(subst.images)
    basis = _echelon(zip(*incidence_matrix(subst)))
    counter = _Budget(SIMPLIFIABILITY_BUDGET)
    for size in range(max(1, len(basis)), n):
        found = _cover(images, size, counter, basis)
        if found is not None:
            dictionary, segmentations = found
            target = tuple(str(i) for i in range(len(dictionary)))
            f = tuple(
                tuple(target[idx] for idx in seg) for seg in segmentations
            )
            return Simplification(target, f, tuple(dictionary))
    return None


def _counts(word, n):
    """The count vector of a chr-coded word over ``n`` letters."""
    return [word.count(chr(i)) for i in range(n)]


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


def _cover(images, size, counter, basis):
    """Depth-first search for a dictionary of at most ``size`` words
    segmenting every image; returns (dictionary, segmentations) or None.

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

    ``basis`` is an echelon basis over GF(q) of the images' count vectors,
    of rank ``r``.  Every image and every word of ``D'`` lies in ``D'*``,
    so the count vectors of the images and of ``D`` lie in the span of the
    ``|D'|`` count vectors of ``D'``, and their GF(q) rank is at most their
    rational rank, at most ``|D'|``.  A word of ``D`` outside the span of
    the images raises that rank to ``r + 1``, so when ``r + 1 > size`` the
    subtree is skipped as well.

    A skipped node is still charged to the budget, so the walk visits a
    subsequence of the unpruned walk's candidates in the same order and
    finds the same first dictionary.

    Every image before the current one is started and ended by words of
    ``D`` (its first and last segments), and the current one is started
    once ``pos > 0``, so the letters may be collected over all images that
    no word of ``D`` starts or ends.  They depend on ``D`` alone and are
    kept per dictionary size on the current path, with the sets of images
    that words of ``D`` start and end as bit masks; the masks of each word
    are computed once, and the letters are collected again only when a
    pushed word starts or ends an image no earlier word did.  Whether a
    word lies outside the span of the images is likewise computed once
    per word, and whether ``D`` holds such a word is kept along the path.
    """
    n = len(images)
    dictionary = []
    segs = [[] for _ in images]
    rank = len(basis)
    # word -> (mask of images it starts, mask of images it ends, whether
    # it lies outside the span of the images)
    marks = {}
    # per dictionary size on the current path: the images words start and
    # end, the first letters of the images no word starts, the number of
    # distinct last letters of the images no word ends, and whether a word
    # lies outside the span of the images
    unmet = [
        (0, 0, {image[0] for image in images}, len({image[-1] for image in images}), False)
    ]

    def push(w):
        dictionary.append(w)
        if w not in marks:
            marks[w] = (
                sum(1 << j for j, image in enumerate(images) if image.startswith(w)),
                sum(1 << j for j, image in enumerate(images) if image.endswith(w)),
                any(_residue(basis, _counts(w, n))),
            )
        started, ended, firsts, lasts, outside = unmet[-1]
        w_starts, w_ends, w_outside = marks[w]
        if w_starts & ~started:
            started |= w_starts
            firsts = {image[0] for j, image in enumerate(images) if not started >> j & 1}
        if w_ends & ~ended:
            ended |= w_ends
            lasts = len({image[-1] for j, image in enumerate(images) if not ended >> j & 1})
        unmet.append((started, ended, firsts, lasts, outside or w_outside))

    def pop():
        dictionary.pop()
        unmet.pop()

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
            for stop in range(pos + 1, len(image) + 1):
                w = image[pos:stop]
                if w in dictionary:
                    continue
                seg.append(len(dictionary))
                push(w)
                yield img_idx, stop
                pop()
                seg.pop()

    # the current path as a stack of move generators, not of Python frames:
    # a path places one word per level, over a thousand on long images
    stack = [iter([(0, 0)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        counter.spend()
        img_idx, pos = node
        if img_idx == n:
            return dictionary, segs
        if pos == len(images[img_idx]):
            stack.append(iter([(img_idx + 1, 0)]))
        else:
            stack.append(moves(img_idx, pos))
    return None


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
    round reads the memoised ``_simplification``, so a cached
    substitution is searched at most once, also when the search runs out
    of budget.

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
        simp, budget_message = _simplification(subst)
        if budget_message is not None:
            raise SearchBudgetError(budget_message)
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


@memoised
def _simplification(subst):
    """``(is_simplifiable(subst), None)``, or ``(None, message)`` when the
    search runs out of budget.  The table cache keeps no exceptions, so
    the budget outcome is memoised as a value and raised afresh by the
    caller (a stored exception object would grow its traceback on every
    raise)."""
    try:
        return is_simplifiable(subst), None
    except SearchBudgetError as exc:
        return None, str(exc)
