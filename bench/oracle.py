"""Reference answers for checking benchmark outputs.

Nothing here imports the substchaos package: every reference is
recomputed from the rules the benchmark generated, so a wrong answer
from the program under test cannot leak into the reference.

Rules are tuples ``((letter, image), ...)`` in alphabet order, with
one-character letters.
"""

from __future__ import annotations

import json
from functools import lru_cache

# Image length cap for the brute Li-Yorke scans.
BRUTE_BOUND = 20_000
# Lengths over which an "infinite" verdict is checked for strictly
# increasing factor counts.
INFINITE_CHECK_LENGTH = 8
# A finite verdict must show a stalled factor count by this length.
FINITE_CHECK_LENGTH = 64
# Latest separation the simulator may show for an asymptotic pair.
ASYMPTOTIC_SEPARATION_LIMIT = 4096


def rules_text(rules):
    return "".join(f"{a} -> {img}\n" for a, img in rules)


@lru_cache(maxsize=256)
def _table(rules):
    return {ord(a): img for a, img in rules}


def apply(rules, word):
    return word.translate(_table(rules))


def is_primitive(rules):
    """Some power maps every letter onto a word containing every letter
    (searched up to the Wielandt bound)."""
    letters = [a for a, _ in rules]
    n = len(letters)
    step = {a: frozenset(img) for a, img in rules}
    reach = dict(step)
    for _ in range((n - 1) ** 2 + 1):
        if all(len(v) == n for v in reach.values()):
            return True
        reach = {a: frozenset().union(*(step[c] for c in reach[a])) for a in letters}
    return False


def _factors(words, n):
    return {w[i : i + n] for w in words for i in range(len(w) - n + 1)}


@lru_cache(maxsize=256)
def _two_letter_words(rules):
    two = _factors([img for _, img in rules], 2)
    while True:
        grown = two | _factors([apply(rules, w) for w in two], 2)
        if grown == two:
            return frozenset(two)
        two = grown


@lru_cache(maxsize=256)
def _covering_words(rules, n):
    """Iterated images of the two-letter words, each long enough that
    every length-``n`` factor of the subshift lies inside one of them:
    a factor of length ``n <= p^k + 1`` meets at most two consecutive
    blocks of ``sigma^k``."""
    p = len(rules[0][1])
    words = list(_two_letter_words(rules))
    span = 1
    while span < n - 1:
        words = [apply(rules, w) for w in words]
        span *= p
    return tuple(words)


def language(rules, n):
    """All length-``n`` words of the subshift of a primitive
    constant-length substitution: factors of an iterated image."""
    if n == 1:
        return {c for w in _two_letter_words(rules) for c in w}
    return _factors(_covering_words(rules, n), n)


def factor_counts(rules, upto):
    words = _covering_words(rules, upto)
    return [len({c for w in words for c in w})] + [
        len(_factors(words, n)) for n in range(2, upto + 1)
    ]


def has_stall(rules, upto):
    """True when ``p(n+1) == p(n)`` for some ``n < upto``; for the minimal
    subshift of a primitive substitution this holds exactly when the
    subshift is finite (Morse-Hedlund), provided ``upto`` reaches it."""
    counts = factor_counts(rules, upto)
    return any(counts[i + 1] == counts[i] for i in range(len(counts) - 1))


def reduction(rules):
    """Merge letters with identical images (the earliest letter in
    alphabet order represents the merged set) until images are distinct.
    Returns (reduced rules, letter map, number of rounds)."""
    current = tuple(rules)
    total = {a: a for a, _ in rules}
    rounds = 0
    while len({img for _, img in current}) != len(current):
        rep = {}
        for a, img in current:
            rep.setdefault(img, a)
        merge = {a: rep[img] for a, img in current}
        current = tuple(
            (a, "".join(merge[c] for c in img)) for a, img in current if rep[img] == a
        )
        total = {a: merge[b] for a, b in total.items()}
        rounds += 1
    return current, total, rounds


def coincidence_kind(rules):
    images = [img for _, img in rules]
    has = [
        any(x == y for x, y in zip(images[i], images[j]))
        for i in range(len(images))
        for j in range(i + 1, len(images))
    ]
    if all(has):
        return "overall"
    if not any(has):
        return "no_coincidence"
    return "partial"


def _aligned(wa, a, wb, b, start):
    """First position >= start where ``wa`` has ``a`` and ``wb`` has ``b``."""
    t = wa.find(a, start)
    while t >= 0 and wb[t] != b:
        t = wa.find(a, t + 1)
    return t


def _last(wa, wb, equal):
    for t in range(len(wa) - 1, -1, -1):
        if (wa[t] == wb[t]) is equal:
            return t
    return -1


def brute_ly(rules, bound=BRUTE_BOUND):
    """Direct scans of iterated images for the two pair criteria (an
    aligned occurrence of a letter pair inside its own iterated pair image
    followed by a coincidence and a difference; two such occurrences with
    a coincidence after the first).  One-sided: a hit proves the property,
    a miss proves nothing."""
    letters = [a for a, _ in rules]
    p = len(rules[0][1])
    words = [img for _, img in rules]
    ly = unc = False
    while True:
        for i, a in enumerate(letters):
            for k in range(i + 1, len(letters)):
                b = letters[k]
                wa, wb = words[i], words[k]
                j = _aligned(wa, a, wb, b, 0)
                if j < 0 or _last(wa, wb, True) <= j:
                    continue
                if _last(wa, wb, False) > j:
                    ly = True
                if _aligned(wa, a, wb, b, j + 1) >= 0:
                    unc = True
        if ly and unc or len(words[0]) * p > bound:
            return ly, unc
        words = [apply(rules, w) for w in words]


def iterate(rules, word, count):
    for _ in range(count):
        word = apply(rules, word)
    return word


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason


def check_budget_exit(code, stdout, stderr):
    """A finiteness search budget overflow: exit 3, nothing on stdout, one
    JSON ``SearchBudgetError`` line on stderr."""
    if code != 3:
        return f"exit code {code}"
    if stdout:
        return "budget exit wrote to stdout"
    lines = stderr.splitlines()
    if len(lines) != 1:
        return "budget exit must write exactly one stderr line"
    try:
        doc = json.loads(lines[0])
    except json.JSONDecodeError:
        return "stderr line is not JSON"
    if doc.get("error") != "SearchBudgetError":
        return f"unexpected error {doc.get('error')!r}"
    return None


def check_certificate(rules, cert):
    m, a, b = cert["m"], cert["a"], cert["b"]
    u, v, u2, v2 = cert["u"], cert["v"], cert["u2"], cert["v2"]
    if len(u) != len(u2) or len(v) != len(v2):
        return "certificate words are not aligned"
    if iterate(rules, a, m) != u + a + v or iterate(rules, b, m) != u2 + b + v2:
        return "certificate words are not the iterated images"
    if not any(x == y for x, y in zip(v, v2)):
        return "certificate has no coincidence after the occurrence"
    if v == v2:
        return "certificate has no difference after the occurrence"
    return None


def check_analyze(rules, doc, validator):
    """Check an ``analyze --json`` report against the schema and the
    references above."""
    errors = sorted(validator.iter_errors(doc), key=str)
    if errors:
        return f"schema: {errors[0].message}"
    if doc["input"] != {"alphabet": [a for a, _ in rules], "rules": dict(rules)}:
        return "input echo differs"
    if doc["primitive"] is not True or doc["constant_length"] != len(rules[0][1]):
        return "primitive/constant_length"
    reduced, letter_map, rounds = reduction(rules)
    red = doc["one_to_one_reduction"]
    if (
        red["alphabet"] != [a for a, _ in reduced]
        or red["rules"] != dict(reduced)
        or red["letter_map"] != letter_map
        or red["steps"] != rounds
    ):
        return "one-to-one reduction differs"
    infinite = doc["x_tau_infinite"]
    if infinite and has_stall(rules, INFINITE_CHECK_LENGTH):
        return "infinite verdict but the factor count stalls"
    if not infinite:
        if not has_stall(rules, FINITE_CHECK_LENGTH):
            return "finite verdict but factor counts keep growing"
        if "has_li_yorke" in doc:
            return "finite report carries pair fields"
        return None
    if doc["coincidence_class"] != coincidence_kind(reduced):
        return "coincidence class differs"
    if doc["fiber_bound"] != len(language(reduced, 3)):
        return "fiber bound differs from the length-3 word count"
    ly, unc = brute_ly(reduced)
    if ly and not doc["has_li_yorke"]:
        return "word scan finds Li-Yorke pairs the report denies"
    if unc and not doc["uncountable_li_yorke"]:
        return "word scan finds uncountably many Li-Yorke pairs the report denies"
    if doc["strong_li_yorke"] != doc["uncountable_li_yorke"]:
        return "strong and uncountable verdicts differ"
    cert = doc["li_yorke_certificate"]
    if doc["has_li_yorke"] != (cert is not None):
        return "certificate presence differs from the verdict"
    if cert is not None:
        reason = check_certificate(reduced, cert)
        if reason:
            return reason
    countable = doc["has_li_yorke"] and not doc["uncountable_li_yorke"]
    if countable != ("orbit_representatives" in doc):
        return "orbit list presence differs from the countable verdict"
    return None


def check_language(rules, length, doc):
    order = {a: i for i, (a, _) in enumerate(rules)}
    words = sorted(language(rules, length), key=lambda w: [order[c] for c in w])
    if doc != {"length": length, "count": len(words), "words": words}:
        return "language listing differs from the factors of the iterated image"
    return None


def check_evidence(verdict, evidence):
    """Simulator evidence must not contradict an exact verdict."""
    if verdict == "Distal" and evidence["proximality_count"]:
        return "distal verdict but the simulator saw proximality"
    if verdict == "Asymptotic" and evidence["separation_count"]:
        if evidence["last_separation"] > ASYMPTOTIC_SEPARATION_LIMIT:
            return "asymptotic verdict but separations continue"
    if verdict == "LiYorke" and not (
        evidence["proximality_count"] and evidence["separation_count"]
    ):
        return "Li-Yorke verdict but the simulator saw no proximality or separation"
    return None


def check_tower(doc, depth, horizon):
    if doc["depth"] != depth or doc["horizon"] != horizon:
        return "tower report echoes other parameters"
    if doc["has_distal"]:
        return "tower family has a distal pair"
    for e in doc["entries"]:
        expected = "Asymptotic" if e["level"] == e["first"] else "LiYorke"
        if e["verdict"] != expected:
            return f"tower entry {e['first']},{e['second']}@{e['level']} is {e['verdict']}"
    if not doc["entries"]:
        return "tower report has no entries"
    return None
