"""Seeded workload generation.

Each builder writes its input files into a work directory and returns a
``Plan``: one cycle of operations (one ``substchaos`` command line each,
with what the output check needs).  A run repeats whole cycles, so every
run of a workload covers the same inputs in the same proportions.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
LETTERS = "abcdefghij"

FIXTURES = {
    "morse": "0 -> 01\n1 -> 10\n",
    "toeplitz": "0 -> 01\n1 -> 00\n",
    "ly_two": "0 -> 010\n1 -> 100\n",
    "aba": "a -> aba\nb -> bca\nc -> cca\n",
    "baacd": "a -> baacd\nb -> bbbcd\nc -> bcaba\nd -> bdabd\n",
    "four": "0 -> 0123\n1 -> 1032\n2 -> 1023\n3 -> 0132\n",
}


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str  # "analyze", "language", "classify", "simulate" or "tower"
    ref: object = None  # what the output check needs
    # A SearchBudgetError exit (code 3) is the accepted outcome; set only
    # on the inputs of the budget-limited tier.
    budget_ok: bool = False


@dataclass
class Plan:
    cycle: list
    # Clear every package cache before each repeat of the cycle, so no
    # input is ever served from a cache it filled itself.
    cold: bool
    # Operations in a traced run: the first ones of the cycle.
    trace_ops: int
    # Cycles in every run; an operation's latency is the median of its
    # scaled times across them.  The count is fixed per workload, so every
    # run takes the median over the same number of tries whatever the
    # speed of the program.
    cycles: int


def _write(workdir, name, rules):
    path = workdir / f"{name}.txt"
    path.write_text(oracle.rules_text(rules), encoding="utf-8")
    return str(path)


def _random_rules(rng, n, p, duplicate=False):
    letters = LETTERS[:n]
    while True:
        images = ["".join(rng.choice(letters) for _ in range(p)) for _ in letters]
        if duplicate:
            i, j = rng.sample(range(n), 2)
            images[j] = images[i]
        rules = tuple(zip(letters, images))
        if oracle.is_primitive(rules):
            return rules


def _parse(pkg, rules):
    return pkg.parse_substitution(oracle.rules_text(rules))


# ---------------------------------------------------------------------------
# analyze-tiers

# Inputs per cycle of every tier, dealt round-robin into TIER_CHUNKS
# chunks that are shuffled one by one.  The mix puts the median inside the
# (6,5) tier and the 90th percentile inside the (8,6) tier rather than on
# a gap between tiers.  The small tiers are drawn from the run seed; the
# tiers that set the percentiles and most of the time come from a corpus
# that does not depend on it, so their inputs are the same in every run
# and only their order changes.
SEEDED_TIERS = ((3, 3, 9), (4, 4, 9))
CORPUS_TIERS = ((6, 5, 74), (8, 6, 14), (10, 8, 1))
# Every input of this alphabet size overruns the finiteness search budget.
BUDGET_LIMITED = 10
CORPUS_SEED = 20081030
TIER_CHUNKS = 2
# Filter scans stop at this image length.
FILTER_BOUND = 1000


def _countable_by_library(pkg, rules):
    reduced = pkg.one_to_one_reduction(_parse(pkg, rules)).reduced
    return (
        pkg.decide_infinite(reduced)
        and pkg.has_ly_pairs(reduced)
        and not pkg.has_uncountable_ly(reduced)
    )


def _tier_input(rng, pkg, n, p, duplicate):
    """A primitive input whose analysis never enumerates orbits: small
    alphabets are screened with the library (then the caches are cleared),
    larger ones must show uncountably many Li-Yorke pairs in a word scan."""
    while True:
        rules = _random_rules(rng, n, p, duplicate)
        if n <= 4:
            if not _countable_by_library(pkg, rules):
                return rules
        elif oracle.brute_ly(oracle.reduction(rules)[0], FILTER_BOUND)[1]:
            return rules


def build_analyze_tiers(seed, workdir, pkg):
    rng = random.Random(seed)
    corpus_rng = random.Random(CORPUS_SEED)
    chunks = [[] for _ in range(TIER_CHUNKS)]
    for tiers, tier_rng in ((CORPUS_TIERS, corpus_rng), (SEEDED_TIERS, rng)):
        for n, p, count in tiers:
            for i in range(count):
                rules = _tier_input(tier_rng, pkg, n, p, duplicate=(i % 4 == 3))
                chunks[i % TIER_CHUNKS].append(rules)
    inputs = []
    for chunk in chunks:
        rng.shuffle(chunk)
        inputs.extend(chunk)
    ops = [
        Op(
            ("analyze", _write(workdir, f"t{i}", rules), "--json"),
            "analyze",
            rules,
            budget_ok=len(rules) == BUDGET_LIMITED,
        )
        for i, rules in enumerate(inputs)
    ]
    return Plan(ops, cold=True, trace_ops=len(chunks[0]), cycles=3)


# ---------------------------------------------------------------------------
# analyze-countable


RENAMINGS = list(itertools.permutations("abc"))
# The COUNTABLE_CLASSES cheapest classes (countable.json lists them by
# cost; the first 20 have a partial coincidence, the others an overall
# one), each under RENAMINGS_PER_CLASS renamings, which are different
# substitutions to every cache, plus aba: 100 operations.  The cycle
# takes about 10 s on a two-vCPU virtual machine, so a run affords two
# tries of every operation; the 27 costlier classes (up to 2.6 s each
# there) would make a cycle three times as long.
COUNTABLE_CLASSES = 33
RENAMINGS_PER_CLASS = 3


def _rename(names, images):
    """Rename the letters but keep the rule order, so the alphabet order
    (and with it every computation) is that of the listed class."""
    rename = dict(zip("abc", names))
    return tuple(
        (rename[a], "".join(rename[c] for c in img)) for a, img in zip("abc", images)
    )


def build_analyze_countable(seed, workdir, pkg):
    rng = random.Random(seed)
    classes = json.loads((HERE / "countable.json").read_text(encoding="utf-8"))
    classes = classes[:COUNTABLE_CLASSES]
    aba = tuple(tuple(line.split(" -> ")) for line in FIXTURES["aba"].splitlines())
    inputs = [aba]
    for images in classes:
        for names in rng.sample(RENAMINGS, RENAMINGS_PER_CLASS):
            inputs.append(_rename(names, images))
    rng.shuffle(inputs)
    ops = [
        Op(("analyze", _write(workdir, f"c{i}", rules), "--json"), "analyze", rules)
        for i, rules in enumerate(inputs)
    ]
    return Plan(ops, cold=True, trace_ops=30, cycles=2)


# ---------------------------------------------------------------------------
# language

# The cycle is LANGUAGE_PER_SHAPE substitutions of every shape, each
# listed at one length from every band: 108 operations, about a second.
# The substitutions come from the tier corpus seed, so the cost of a run
# does not swing with a few complex languages.  A band is cut into one
# stratum per substitution of a shape and every substitution gets a
# stratum of every band, a fixed assignment; the run seed draws the
# length within the stratum.  So every run lists the same spread of
# lengths and the median and 90th percentile move little with the seed.
LANGUAGE_SHAPES = tuple((n, p) for n in (2, 3, 4) for p in (2, 3, 4))
LANGUAGE_PER_SHAPE = 3
BAND_WIDTH = 16
LENGTH_BANDS = (1, 17, 33, 49)  # first length of each band


def build_language(seed, workdir, pkg):
    rng = random.Random(seed)
    corpus_rng = random.Random(CORPUS_SEED)
    step = BAND_WIDTH / LANGUAGE_PER_SHAPE
    ops = []
    count = 0
    for n, p in LANGUAGE_SHAPES:
        for i in range(LANGUAGE_PER_SHAPE):
            while True:
                rules = _random_rules(corpus_rng, n, p)
                if len({img for _, img in rules}) == n and pkg.decide_infinite(
                    _parse(pkg, rules)
                ):
                    break
            path = _write(workdir, f"l{count}", rules)
            count += 1
            for band, lo in enumerate(LENGTH_BANDS):
                stratum = (i + band) % LANGUAGE_PER_SHAPE
                m = lo + int((stratum + rng.random()) * step)
                ops.append(Op(("language", path, str(m)), "language", (rules, m)))
    return Plan(ops, cold=True, trace_ops=len(ops), cycles=8)


# ---------------------------------------------------------------------------
# points

# Coincidence kinds of the substitutions drawn from the tier corpus seed
# and added to the fixtures; a fixed mix keeps the share of slow
# (unresolved, evidence-backed) classifications the same in every run,
# and fixed substitutions keep the number of pairs the same.  The pairs
# come from the corpus seed too, because their classification cost
# differs by a factor of two between pairs of one substitution; the run
# seed draws the farthest shift of every pair and the order.
SEEDED_KINDS = ("overall", "no_coincidence")
FAMILIES_PER_SUBSTITUTION = 4
# Horizons for the unshifted pair and its farthest shift.
SIMULATE_HORIZONS = (729, 2187)
TOWERS = ((2, 729), (3, 2187))


def _fixed_points(pkg, s):
    """Every admissible two-sided fixed point, as a fixed-point literal."""
    out = []
    for left in s.alphabet:
        for right in s.alphabet:
            try:
                pt = pkg.stream_from_fixed_point(s, left, right)
            except pkg.SubstitutionError:
                continue
            out.append((pt, {"kind": "fixed_point", "left": left, "right": right}))
    return out


def _point_set(pkg, s):
    from substchaos.odometer import OdometerDigits

    points = _fixed_points(pkg, s)
    p = s.constant_length
    for digits in (
        OdometerDigits(p, (), (1,)),
        OdometerDigits(p, (), (p - 1,)),
        OdometerDigits(p, (1,), (0,)),
    ):
        try:
            fiber = pkg.enumerate_fiber(s, digits, 96)
        except pkg.SeparationBoundError:
            continue
        points.extend((pt, pt.to_literal()) for pt in fiber)
    return points


def build_points(seed, workdir, pkg):
    rng = random.Random(seed)
    corpus_rng = random.Random(CORPUS_SEED)
    sources = dict(FIXTURES)
    for kind in SEEDED_KINDS:
        while True:
            rules = _random_rules(
                corpus_rng, corpus_rng.choice((2, 3)), corpus_rng.choice((2, 3))
            )
            if (
                len({img for _, img in rules}) == len(rules)
                and oracle.coincidence_kind(rules) == kind
                and pkg.decide_infinite(_parse(pkg, rules))
            ):
                sources[f"seeded-{kind}"] = oracle.rules_text(rules)
                break
    ops = []
    families = 0
    for name, text in sources.items():
        path = workdir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        s = pkg.parse_substitution(text)
        points = _point_set(pkg, s)
        candidates = [
            (a, b) for i, a in enumerate(points) for b in points[i + 1 :] if a[0] != b[0]
        ]
        same = [c for c in candidates if c[0][0].odometer_digits() == c[1][0].odometer_digits()]
        other = [c for c in candidates if c not in same]
        chosen = corpus_rng.sample(same, min(len(same), FAMILIES_PER_SUBSTITUTION - 1))
        chosen += corpus_rng.sample(other, min(len(other), 1))
        pairs = [(x, y) for (x, _), (y, _) in chosen]
        literals = [(lx, ly) for (_, lx), (_, ly) in chosen]
        if pkg.has_ly_pairs(s):
            cp = pkg.construct_ly_pair(s)
            pairs.append((cp.x, cp.y))
            literals.append((cp.x.to_literal(), cp.y.to_literal()))
        if pkg.has_uncountable_ly(s):
            rp = pkg.construct_recurrent_ly_pair(s)
            pairs.append((rp.x, rp.y))
            literals.append((rp.x.to_literal(), rp.y.to_literal()))
        for (x, y), (lx, ly) in zip(pairs, literals):
            family = f"{name}:{families}"
            families += 1
            members = [(lx, ly)]
            for steps in (1, 2, rng.randint(3, 40)):
                members.append((x.shift_by(steps).to_literal(), y.shift_by(steps).to_literal()))
            for mx, my in members:
                argv = ("classify", str(path), "--x", json.dumps(mx), "--y", json.dumps(my))
                ops.append(Op(argv, "classify", family))
            for (mx, my), horizon in zip((members[0], members[-1]), SIMULATE_HORIZONS):
                argv = (
                    "simulate", str(path), "--x", json.dumps(mx), "--y", json.dumps(my),
                    "--horizon", str(horizon),
                )
                ops.append(Op(argv, "simulate", family))
    for depth, horizon in TOWERS:
        argv = ("tower", "--depth", str(depth), "--horizon", str(horizon), "--json")
        ops.append(Op(argv, "tower", (depth, horizon)))
    rng.shuffle(ops)
    return Plan(ops, cold=False, trace_ops=len(ops), cycles=12)


BUILDERS = {
    "analyze-tiers": build_analyze_tiers,
    "analyze-countable": build_analyze_countable,
    "points": build_points,
    "language": build_language,
}
