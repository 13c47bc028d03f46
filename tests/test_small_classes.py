"""Every small class, pinned: each substitution on |A| letters with
images of length p, one per class under renaming letters, for the tiers
(|A|, p) in ``TIERS``.  The class counts are pinned, and so is one sha256
per tier in ``tests/data/small_classes.json``.  A tier's digest covers,
for every primitive class in enumeration order, its ``analyze`` report
(keys sorted) and the point literals of ``construct_ly_pair`` and
``construct_recurrent_ly_pair`` on its one-to-one reduction, or the class
and message of what they raise.

The representative of a class is the least tuple of images (letter
codes in alphabet order) among its renamings, with the alphabet
``a``, ``b``, ...

Regenerate the digests only when an output is meant to change:

    PYTHONPATH=src python tests/test_small_classes.py
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

from substchaos import (
    Substitution,
    analyze,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    is_primitive,
    one_to_one_reduction,
)
from substchaos.errors import SubstitutionError

DIGESTS = Path(__file__).parent / "data" / "small_classes.json"

# (|A|, p) -> (classes, primitive classes)
TIERS = {
    (2, 2): (10, 5),
    (2, 3): (36, 27),
    (2, 4): (136, 119),
    (2, 5): (528, 495),
    (2, 6): (2080, 2015),
    (3, 2): (129, 50),
    (3, 3): (3303, 2297),
    (4, 2): (2836, 866),
}


def classes(n, p):
    """The image tuple of each class, least among its renamings."""
    letters = "".join(map(chr, range(n)))
    # each renaming but the identity: its translate table and the new code
    # of each letter
    renamings = [
        (dict(enumerate(perm)), list(map(ord, perm)))
        for perm in itertools.islice(itertools.permutations(letters), 1, None)
    ]
    words = ["".join(w) for w in itertools.product(letters, repeat=p)]
    for images in itertools.product(words, repeat=n):
        for table, codes in renamings:
            renamed = [None] * n
            for c, img in zip(codes, images):
                renamed[c] = img.translate(table)
            if tuple(renamed) < images:
                break
        else:
            yield images


def _construction(construct, s):
    try:
        pair = construct(s)
    except SubstitutionError as exc:
        return f"{type(exc).__name__}: {exc}"
    return [pair.x.to_literal(), pair.y.to_literal(), list(pair.letters)]


def tier(n, p):
    """(classes, primitive classes, digest) of one tier."""
    alphabet = tuple("abcd"[:n])
    count, records = 0, []
    for images in classes(n, p):
        count += 1
        s = Substitution(alphabet, images)
        if not is_primitive(s):
            continue
        reduced = one_to_one_reduction(s).reduced
        records.append(
            [
                analyze(s).to_json_dict(),
                _construction(construct_ly_pair, reduced),
                _construction(construct_recurrent_ly_pair, reduced),
            ]
        )
    text = json.dumps(records, sort_keys=True)
    return count, len(records), hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("n, p", list(TIERS), ids=[f"{n}-{p}" for n, p in TIERS])
def test_small_classes_match_their_digest(n, p):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"{n},{p}"]
    count, primitive, digest = tier(n, p)
    assert (count, primitive) == TIERS[n, p]
    assert digest == expected


if __name__ == "__main__":
    digests = {}
    for n, p in TIERS:
        count, primitive, digest = tier(n, p)
        assert (count, primitive) == TIERS[n, p], (n, p, count, primitive)
        digests[f"{n},{p}"] = digest
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {DIGESTS}", file=sys.stderr)
