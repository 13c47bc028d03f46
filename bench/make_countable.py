"""Regenerate ``countable.json``: every one-to-one primitive substitution
on three letters with image length 2 or 3 whose subshift has countably
many (but some) Li-Yorke pairs, one per class under renaming letters.
Each entry lists the images of ``a``, ``b``, ``c``.  The classes are
listed in increasing order of the time ``analyze --json`` takes on them
(the fastest of two runs with cold caches), so the workload can repeat
the cheapest ones.

Run from the repository root:  python3 bench/make_countable.py
"""

import itertools
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from substchaos import (  # noqa: E402
    Substitution,
    decide_infinite,
    has_ly_pairs,
    has_uncountable_ly,
    is_primitive,
)
from substchaos.cli import main as cli_main  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402

LETTERS = "abc"
TIMING_DIR = HERE.parent / ".bench_work" / "make-countable"


def canonical(images):
    """Least relabelled rule list, so each renaming class appears once."""
    best = None
    for perm in itertools.permutations(LETTERS):
        rename = dict(zip(LETTERS, perm))
        rules = sorted(
            (rename[a], "".join(rename[c] for c in img))
            for a, img in zip(LETTERS, images)
        )
        if best is None or rules < best:
            best = rules
    return tuple(best)


def analyze_seconds(rules, caches):
    """Fastest of two in-process ``analyze --json`` runs, caches cleared."""
    path = TIMING_DIR / "class.txt"
    path.write_text(oracle.rules_text(rules), encoding="utf-8")
    times = []
    for _ in range(2):
        for cache in caches:
            cache.cache_clear()
        code, _, err, seconds = run._run_one(cli_main, ["analyze", str(path), "--json"], None)
        if code != 0:
            raise SystemExit(f"analyze failed on {rules}: {err}")
        times.append(seconds)
    return min(times)


def main():
    classes = set()
    for p in (2, 3):
        words = ["".join(w) for w in itertools.product(LETTERS, repeat=p)]
        for images in itertools.product(words, repeat=len(LETTERS)):
            s = Substitution.from_rules(dict(zip(LETTERS, images)), tuple(LETTERS))
            if not s.is_injective() or not is_primitive(s):
                continue
            key = canonical(images)
            if key in classes:
                continue
            if decide_infinite(s) and has_ly_pairs(s) and not has_uncountable_ly(s):
                classes.add(key)
    caches = run.package_caches()
    TIMING_DIR.mkdir(parents=True, exist_ok=True)
    try:
        cost = {key: analyze_seconds(key, caches) for key in classes}
    finally:
        shutil.rmtree(TIMING_DIR, ignore_errors=True)
    lines = [json.dumps([img for _, img in key]) for key in sorted(classes, key=cost.get)]
    (HERE / "countable.json").write_text("[\n" + ",\n".join(lines) + "\n]\n")
    print(f"{len(lines)} classes")


if __name__ == "__main__":
    main()
