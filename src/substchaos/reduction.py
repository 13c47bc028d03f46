"""One-to-one reduction of substitutions and the decision procedure for
finiteness of the generated subshift.

The finiteness decision alternates two steps: if the substitution is
elementary, the subshift is infinite exactly when some letter has two
distinct one-letter right extensions in the language; otherwise it factors
through a strictly smaller alphabet as ``g . f`` and the question is
delegated to ``f . g`` on that alphabet.  The alphabet shrinks at every
round, so the recursion terminates.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .errors import InvariantError, PreconditionError, SearchBudgetError
from .substitution import (
    Substitution,
    is_primitive,
    language_chr,
    memoised,
)

SIMPLIFIABILITY_BUDGET = 10**6


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of repeatedly merging letters with identical images."""

    reduced: Substitution
    letter_map: tuple[tuple[str, str], ...]  # (original token, reduced token)
    chain: tuple[tuple[Substitution, tuple[tuple[str, str], ...]], ...]

    def map_token(self, token):
        return dict(self.letter_map)[token]

    def map_word(self, subst, word):
        m = dict(self.letter_map)
        toks = list(word) if isinstance(word, str) else [t for t in word]
        out = [m[t] for t in toks]
        if all(len(t) == 1 for t in self.reduced.alphabet):
            return "".join(out)
        return tuple(out)


def one_to_one_reduction(subst):
    """Merge letters with identical images (representative: earliest in
    alphabet order) until all images are pairwise distinct."""
    current = subst
    chain = []
    total = {tok: tok for tok in subst.alphabet}
    while not current.is_injective():
        rep = {}
        for i, img in enumerate(current.images):
            rep.setdefault(img, i)
        keep = sorted(set(rep.values()))
        old_to_new = {}
        for i, img in enumerate(current.images):
            old_to_new[i] = keep.index(rep[img])
        alphabet = tuple(current.alphabet[i] for i in keep)
        images = tuple(
            "".join(chr(old_to_new[ord(ch)]) for ch in current.images[i]) for i in keep
        )
        step_map = tuple(
            (current.alphabet[i], current.alphabet[keep[old_to_new[i]]])
            for i in range(current.size)
        )
        nxt = Substitution(alphabet, images)
        chain.append((current, step_map))
        step = dict(step_map)
        total = {tok: step[total[tok]] for tok in total}
        current = nxt
    letter_map = tuple((tok, total[tok]) for tok in subst.alphabet)
    return ReductionResult(current, letter_map, tuple(chain))


# ---------------------------------------------------------------------------
# simplifiability


@dataclass(frozen=True)
class Simplification:
    """A factorization ``subst = g . f`` through a smaller alphabet."""

    target_alphabet: tuple[str, ...]
    f: tuple[tuple[str, ...], ...]  # per source letter, word over target_alphabet
    g: tuple[str, ...]  # per target letter, internal word over the source alphabet


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


def is_simplifiable(subst, budget=SIMPLIFIABILITY_BUDGET):
    """Search for morphisms ``f: A -> B+`` and ``g: B -> A+`` with
    ``g(f(a))`` equal to every image and ``|B| < |A|``.

    Equivalently: a dictionary of at most ``|A| - 1`` words over ``A``
    such that every image is a concatenation of dictionary words.  The
    search walks factorizations depth-first, introducing dictionary words
    in order of first use, so the reported simplification is
    deterministic.  Returns None for an elementary substitution.

    Deciding elementariness is co-NP-complete in general, so the search
    keeps its candidate budget; ``_cover`` only skips subtrees that a
    lower bound on the dictionary size proves empty.  The walk order is
    unchanged, so the result is the one the unpruned walk finds wherever
    that walk finishes, and no more candidates are spent.
    """
    n = subst.size
    images = list(subst.images)
    counter = _Budget(budget)
    for size in range(1, n):
        found = _cover(images, size, counter)
        if found is not None:
            dictionary, segmentations = found
            target = tuple(str(i) for i in range(len(dictionary)))
            f = tuple(
                tuple(target[idx] for idx in seg) for seg in segmentations
            )
            g = tuple(dictionary)
            for a in range(n):
                rebuilt = "".join(dictionary[idx] for idx in segmentations[a])
                if rebuilt != images[a]:
                    raise InvariantError(
                        "simplification does not rebuild the image of letter "
                        f"{subst.alphabet[a]}"
                    )
            return Simplification(target, f, g)
    return None


def _cover(images, size, counter):
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
    and is skipped; the node itself is still charged to the budget, so
    the walk visits a subsequence of the unpruned walk's candidates in the
    same order and finds the same first dictionary.

    Every image before the current one is started and ended by words of
    ``D`` (its first and last segments), and the current one is started
    once ``pos > 0``, so the letters may be collected over all images that
    no word of ``D`` starts or ends.  They depend on ``D`` alone and are
    kept per dictionary size on the current path, with the sets of images
    that words of ``D`` start and end as bit masks; the masks of each word
    are computed once, and the letters are collected again only when a
    pushed word starts or ends an image no earlier word did.
    """
    n = len(images)
    dictionary = []
    segs = [[] for _ in images]
    marks = {}  # word -> (mask of images it starts, mask of images it ends)
    # per dictionary size on the current path: the images words start and
    # end, the first letters of the images no word starts, and the number
    # of distinct last letters of the images no word ends
    unmet = [(0, 0, {image[0] for image in images}, len({image[-1] for image in images}))]

    def push(w):
        dictionary.append(w)
        if w not in marks:
            marks[w] = (
                sum(1 << j for j, image in enumerate(images) if image.startswith(w)),
                sum(1 << j for j, image in enumerate(images) if image.endswith(w)),
            )
        started, ended, firsts, lasts = unmet[-1]
        w_starts, w_ends = marks[w]
        if w_starts & ~started:
            started |= w_starts
            firsts = {image[0] for j, image in enumerate(images) if not started >> j & 1}
        if w_ends & ~ended:
            ended |= w_ends
            lasts = len({image[-1] for j, image in enumerate(images) if not ended >> j & 1})
        unmet.append((started, ended, firsts, lasts))

    def pop():
        dictionary.pop()
        unmet.pop()

    def walk(img_idx, pos):
        counter.spend()
        if img_idx == n:
            return True
        image = images[img_idx]
        if pos == len(image):
            return walk(img_idx + 1, 0)
        _, _, firsts, lasts = unmet[-1]
        spare = size - len(dictionary)
        if max(len(firsts), lasts) > spare or (
            len(firsts) == spare
            and image[pos] not in firsts
            and not any(image.startswith(w, pos) for w in dictionary)
        ):
            return False
        seg = segs[img_idx]
        for widx in range(len(dictionary)):
            w = dictionary[widx]
            if image.startswith(w, pos):
                seg.append(widx)
                if walk(img_idx, pos + len(w)):
                    return True
                seg.pop()
        if len(dictionary) < size:
            for stop in range(pos + 1, len(image) + 1):
                w = image[pos:stop]
                if w in dictionary:
                    continue
                seg.append(len(dictionary))
                push(w)
                if walk(img_idx, stop):
                    return True
                pop()
                seg.pop()
        return False

    if walk(0, 0):
        return dictionary, segs
    return None


# ---------------------------------------------------------------------------
# finiteness of the subshift


def biprolongeable_letters(subst):
    """Letters with at least two distinct one-letter right extensions in
    the language."""
    followers = {i: set() for i in range(subst.size)}
    for w in language_chr(subst, 2):
        followers[ord(w[0])].add(w[1])
    return [subst.alphabet[i] for i in sorted(followers) if len(followers[i]) >= 2]


def _composed(simp, subst):
    """The substitution ``f . g`` on the smaller alphabet."""
    f_chr = ["".join(chr(int(t)) for t in word) for word in simp.f]
    images = []
    for g_img in simp.g:
        images.append("".join(f_chr[ord(ch)] for ch in g_img))
    return Substitution(simp.target_alphabet, tuple(images))


def decide_infinite_trace(subst):
    """Exact finiteness decision with the step-by-step trace.

    Returns ``(infinite, trace)`` where the trace lists one record per
    round of the simplification loop.  The trace is a fresh copy: callers
    may change it without touching the memoised decision.
    """
    infinite, trace = _decision(subst)
    return infinite, [copy.deepcopy(record) for record in trace]


def decide_infinite(subst):
    """True exactly when the generated subshift is infinite."""
    return _decision(subst)[0]


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


@memoised
def _decision(subst):
    """The verdict and the trace records of one substitution, memoised so
    that each substitution is searched at most once, a search that runs
    out of budget included.  A simplified round delegates to ``f . g``,
    whose decision is memoised in turn."""
    if not is_primitive(subst):
        raise PreconditionError("finiteness decision requires a primitive substitution")
    if subst.size == 1:
        return False, ({"alphabet_size": 1, "action": "singleton", "infinite": False},)
    simp, budget_message = _simplification(subst)
    if budget_message is not None:
        raise SearchBudgetError(budget_message)
    if simp is None:
        bip = biprolongeable_letters(subst)
        record = {
            "alphabet_size": subst.size,
            "action": "elementary",
            "biprolongeable": list(bip),
            "infinite": bool(bip),
        }
        return bool(bip), (record,)
    nxt = _composed(simp, subst)
    if not is_primitive(nxt):
        raise PreconditionError("simplification produced a non-primitive substitution")
    record = {
        "alphabet_size": subst.size,
        "action": "simplified",
        "target_alphabet_size": len(simp.target_alphabet),
        "dictionary": [
            subst.decode(w) if isinstance(subst.decode(w), str) else list(subst.decode(w))
            for w in simp.g
        ],
    }
    infinite, rest = _decision(nxt)
    return infinite, (record,) + rest
