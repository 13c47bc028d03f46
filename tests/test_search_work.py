"""The simplification search's work, pinned, and its span test checked.

For each input of two corpora, the simplification that
``is_simplifiable`` returns and the candidates it spends (no input runs
out of budget) are hashed into one sha256 per corpus in
``tests/data/search_work.json``.  Candidate counts are deterministic, so
a change that only makes each candidate cheaper keeps both digests.

- ``classes``: every class of ``test_small_classes.TIERS`` whose images'
  count vectors have rank below |A|, primitive or not.
- ``tiers``: seeded primitive inputs shaped like the benchmark's larger
  tiers, (6,5), (8,6) and (10,8), in which one to three images repeat or
  rearrange an earlier image, so the rank is below |A|.

The search tells whether a slice of an image has letter counts outside
the span of the images' counts by comparing prefix sums of a kernel
basis (``reduction._WordTable``); ``test_kernel_test_matches_the_residue``
checks it on every slice against the reduction of the counts by the
echelon basis.

Regenerate the digests only when the search is meant to change:

    PYTHONPATH=src python tests/test_search_work.py
"""

import hashlib
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from substchaos import Substitution, is_primitive, parse_substitution
from substchaos.reduction import _echelon, _residue, _search, _WordTable, is_simplifiable

from conftest import rational_rank
from test_small_classes import TIERS, classes

DIGESTS = Path(__file__).parent / "data" / "search_work.json"

# (|A|, p, inputs) of the tier-shaped corpus
TIER_SHAPES = ((6, 5, 120), (8, 6, 60), (10, 8, 20))
TIER_SEED = 20081031
# corpus -> (inputs, candidates spent over them)
SIZES = {"classes": (3927, 31722), "tiers": (200, 663834)}


def class_corpus():
    """The rank-deficient small classes, tier by tier in enumeration
    order."""
    out = []
    for n, p in TIERS:
        alphabet = tuple("abcd"[:n])
        for images in classes(n, p):
            s = Substitution(alphabet, images)
            if rational_rank(s) < n:
                out.append(s)
    return out


def tier_corpus():
    """Primitive inputs of ``TIER_SHAPES``: in the k-th input of a shape,
    1 + k % 3 images after the first copy an earlier image (even k) or
    rearrange its letters (odd k) (deterministic seed)."""
    rng = random.Random(TIER_SEED)
    out = []
    for n, p, count in TIER_SHAPES:
        alphabet = tuple("abcdefghij"[:n])
        letters = "".join(map(chr, range(n)))
        made = 0
        while made < count:
            images = ["".join(rng.choice(letters) for _ in range(p)) for _ in range(n)]
            for j in rng.sample(range(1, n), 1 + made % 3):
                image = list(images[rng.randrange(j)])
                if made % 2:
                    rng.shuffle(image)
                images[j] = "".join(image)
            s = Substitution(alphabet, tuple(images))
            if is_primitive(s):
                out.append(s)
                made += 1
    return out


CORPORA = {"classes": class_corpus, "tiers": tier_corpus}


def corpus_work(name):
    """(inputs, candidates spent, digest) of one corpus; a record holds
    the images, the simplification or None, and the candidates spent."""
    records = [[list(s.images), *_search(s)] for s in CORPORA[name]()]
    text = json.dumps(records)
    spent = sum(record[2] for record in records)
    return len(records), spent, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(CORPORA))
def test_search_work_matches_its_digest(name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    inputs, spent, digest = corpus_work(name)
    assert (inputs, spent) == SIZES[name]
    assert digest == expected


def test_kernel_test_matches_the_residue(fixtures):
    # for every slice of every image, the prefix sums of the kernel basis
    # differ exactly when the slice's counts reduce to a nonzero residue
    # by the echelon basis; the search builds the table only below full
    # rank, which the fixtures morse, ly_two and four and the corpus are,
    # at ranks |A| - 1, |A| - 2 and |A| - 3
    deficits = set()
    for s in list(fixtures.values()) + tier_corpus():
        n = s.size
        vectors = [[image.count(chr(a)) for a in range(n)] for image in s.images]
        basis = _echelon(vectors)
        assert len(basis) == rational_rank(s), s.rules()
        deficits.add(n - len(basis))
        if len(basis) == n:
            continue
        table = _WordTable(s.images, basis)
        for image, sums in zip(s.images, table.sums):
            for pos in range(len(image)):
                for stop in range(pos + 1, len(image) + 1):
                    counts = [image.count(chr(a), pos, stop) for a in range(n)]
                    outside = sums[stop] != sums[pos]
                    assert outside == any(_residue(basis, counts)), (s.rules(), pos, stop)
    assert {0, 1, 2, 3} <= deficits


def _long_search_peak(k):
    # the shape of ``test_cli.DEEP_COMPOSED`` with images of 2k letters:
    # rank 2, and the search finds {ab, c} walking every image once
    s = parse_substitution(
        f"a -> {'ab' * (k - 1)}cc\nb -> c{'ab' * (k - 1)}c\nc -> {'ab' * k}\n"
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        simp = is_simplifiable(s)
        return simp, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_search_memory_grows_linearly_with_the_images():
    # the word table keeps only the words the walk places, not every
    # prefix and suffix of every image: four times the letters takes about
    # four times the memory (3.9x), where a table of all prefixes and
    # suffixes, quadratic in the image length, took 11x (4.1 -> 46 MB)
    short, short_peak = _long_search_peak(500)
    long, long_peak = _long_search_peak(2000)
    assert short.g == long.g == ("\0\1", "\2")
    assert long_peak < 6 * short_peak


if __name__ == "__main__":
    digests = {}
    for name in CORPORA:
        inputs, spent, digest = corpus_work(name)
        digests[name] = digest
        print(f"{name}: {inputs} inputs, {spent} candidates", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS}", file=sys.stderr)
