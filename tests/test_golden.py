"""Golden outputs: the sha256 digest of every case below must equal the
one stored in ``tests/data/golden.json``.

A CLI case is every run of one ``substchaos`` subcommand on one input,
in this process; its digest covers each command line (the point
literals included), exit code, stdout and stderr.  A library case is
every call of one function on one input: the point literals it returns
(fibers, constructed pairs, Li-Yorke orbit representatives, tower and
scrambled-set points), or the class and message of what it raised.  The inputs
are the fixtures, the 60 classes of ``bench/countable.json`` and seeded
random substitutions with |A|, p <= 4, unfiltered, so parse, precondition
and finite-subshift errors are covered too.  Point literals also come
mutated, which reaches every check of the point constructor.

Regenerate the digests only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from substchaos import (
    OdometerDigits,
    build_scrambled_set,
    cli,
    construct_ly_pair,
    construct_recurrent_ly_pair,
    enumerate_fiber,
    enumerate_ly_orbits,
    parse_substitution,
    stream_from_fixed_point,
    tower_point_x,
    tower_point_y,
)
from substchaos.errors import SubstitutionError

from conftest import COUNTABLE_CLASSES, CORPUS_SEED, FIXTURE_SOURCES, PERIOD_TWO, SAME

GOLDEN = Path(__file__).parent / "data" / "golden.json"
SEEDED_COUNT = 220
LANGUAGE_LENGTHS = (0, 2, 5)
PAIRS_PER_INPUT = 6
SIMULATE_HORIZON = 64
TOWER_RUNS = ((1, 27), (2, 81), (3, 243), (0, 27))
SEEDS = ("left_seed", "right_seed")
# inputs outside the domain of the point layer
EXTRA_SOURCES = {
    "fibonacci": "a -> ab\nb -> a",
    "rotation": "a -> b\nb -> a",
    "same": SAME,
    "period_two": PERIOD_TWO,
}


def _sources():
    """(name, rules text) of every input substitution."""
    out = list(FIXTURE_SOURCES.items()) + list(EXTRA_SOURCES.items())
    for i, images in enumerate(COUNTABLE_CLASSES):
        out.append((f"countable-{i}", "\n".join(f"{c} -> {w}" for c, w in zip("abc", images))))
    rng = random.Random(CORPUS_SEED + 22)
    for i in range(SEEDED_COUNT):
        alphabet = "abcd"[: rng.randint(2, 4)]
        p = rng.randint(2, 4)
        rules = [f"{c} -> {''.join(rng.choice(alphabet) for _ in range(p))}" for c in alphabet]
        out.append((f"seeded-{i}", "\n".join(rules)))
    return out


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _library_value(fn):
    """The JSON text of ``fn()``, or the class and message it raised."""
    try:
        return json.dumps(fn(), sort_keys=True)
    except SubstitutionError as exc:
        return f"{type(exc).__name__}: {exc}"


def _literals(points):
    return [pt.to_literal() for pt in points]


def _fibers(s):
    """The four sample fibers, or none when ``s`` has no odometer."""
    p = s.constant_length
    if p is None or p < 2:
        return ()
    return (
        ("1^inf", OdometerDigits(p, (), (1,))),
        ("(p-1)^inf", OdometerDigits(p, (), (p - 1,))),
        ("(1)0^inf", OdometerDigits(p, (1,), (0,))),
        ("000(p-1)^inf", OdometerDigits(p, (0, 0, 0), (p - 1,))),
    )


def _points(s):
    """Library points of ``s`` (fixed points, then three fibers and the
    constructed pairs), or [] when ``s`` admits none."""
    points = []
    if not _fibers(s):
        return points
    for left in s.alphabet:
        for right in s.alphabet:
            try:
                points.append(stream_from_fixed_point(s, left, right))
            except SubstitutionError:
                pass
    for _, digits in _fibers(s)[:3]:
        try:
            points.extend(enumerate_fiber(s, digits))
        except SubstitutionError:
            return []
    for construct in (construct_ly_pair, construct_recurrent_ly_pair):
        try:
            pair = construct(s)
        except SubstitutionError:
            continue
        points.extend((pair.x, pair.y))
    return points


def _mutants(lit, alphabet):
    """Invalid or non-canonical variants of a stream literal."""
    lit = dict(lit, preperiod=lit.get("preperiod", []))
    period, pre = lit["period"], lit["preperiod"]
    other = next(a for a in alphabet if a != period[0][1])
    yield dict(lit, period=[])
    yield dict(lit, preperiod=pre + period)
    yield dict(lit, period=period + period)
    # the last period level copied below the period, or the lowest
    # preperiod level dropped
    yield dict(lit, preperiod=pre[1:] if pre else period[-1:])
    yield dict(lit, period=[[period[0][0], other, period[0][2]]] + period[1:])
    yield dict(lit, period=[[period[0][0] + other, period[0][1], period[0][2]]] + period[1:])
    yield dict(lit, period=[["", period[0][1], ""]] + period[1:])
    for key in SEEDS:
        if lit.get(key) is not None:
            yield dict(lit, **{key: None})
        for letter in alphabet:
            yield dict(lit, **{key: letter})


def _cli_runs(text, path):
    """Every command line run on one input, as argv lists."""
    yield ["analyze", path]
    yield ["analyze", path, "--json"]
    yield ["reduce", path]
    yield ["decide", path]
    for length in LANGUAGE_LENGTHS:
        yield ["language", path, str(length)]
    try:
        s = parse_substitution(text)
    except SubstitutionError:
        return
    first, last = s.alphabet[0], s.alphabet[-1]
    lx, ly = (json.dumps({"kind": "fixed_point", "left": first, "right": r}) for r in (first, last))
    yield ["classify", path, "--x", lx, "--y", ly]
    points = _points(s)
    pairs = [(x, y) for i, x in enumerate(points) for y in points[i + 1 :]]
    pairs = pairs[:PAIRS_PER_INPUT] + [(x.shift_by(3), y.shift_by(3)) for x, y in pairs[:2]]
    if points:
        pairs.append((points[0], points[0].shift_by(1)))
        pairs += [(points[-2], points[-1]), (points[-1], points[-2])]
    for i, (x, y) in enumerate(pairs):
        lx, ly = json.dumps(x.to_literal()), json.dumps(y.to_literal())
        yield ["classify", path, "--x", lx, "--y", ly]
        if i < 2:
            yield ["simulate", path, "--x", lx, "--y", ly, "--horizon", str(SIMULATE_HORIZON)]
    bare = {"kind": "stream", "period": [["", first, ""]]}
    yield ["classify", path, "--x", json.dumps(bare), "--y", json.dumps(bare)]
    sources = [points[-1:]]
    sources += [[pt for pt in points if pt.to_literal()[seed]][:1] for seed in SEEDS]
    for pt in sum(sources, []):
        lit = pt.to_literal()
        for mutant in _mutants(lit, s.alphabet):
            yield ["classify", path, "--x", json.dumps(mutant), "--y", json.dumps(lit)]


def _library_calls(text):
    """(function name, value thunk) of the library point literals of one
    input."""
    try:
        s = parse_substitution(text)
    except SubstitutionError:
        return
    for _, digits in _fibers(s):
        yield "enumerate_fiber", lambda d=digits: _literals(enumerate_fiber(s, d))
    for construct in (construct_ly_pair, construct_recurrent_ly_pair):

        def pair(c=construct):
            cp = c(s)
            return _literals((cp.x, cp.y)) + [list(cp.letters)]

        yield construct.__name__, pair
    yield "enumerate_ly_orbits", lambda: [_literals(xy) for xy in enumerate_ly_orbits(s)]


def _extra_library_calls():
    for n in (1, 2, 3):
        yield "tower_point_x", lambda n=n: _literals([tower_point_x(n)])
        for m in range(n, 4):
            yield "tower_point_y", lambda m=m, n=n: _literals([tower_point_y(m, n)])
    for k in (1, 2, 3):
        yield "build_scrambled_set", lambda k=k: _literals(build_scrambled_set(k)[1])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def compute(workdir):
    """The digest of every case: the runs of one subcommand, or the calls
    of one library function, on one input.  ``workdir`` holds the input
    files, and no output may name it."""
    records = {}
    for name, text in _sources():
        path = str(Path(workdir) / f"{name}.txt")
        Path(path).write_text(text + "\n", encoding="utf-8")
        for argv in _cli_runs(text, path):
            code, out, err = _run(argv)
            assert str(workdir) not in out + err, f"{name} {argv[0]}: output names the file"
            shown = ["PATH" if a == path else a for a in argv]
            records.setdefault(f"{name} {argv[0]}", []).append([shown, code, out, err])
        for function, thunk in _library_calls(text):
            records.setdefault(f"{name} {function}", []).append(_library_value(thunk))
    for depth, horizon in TOWER_RUNS:
        for extra in ([], ["--json"]):
            argv = ["tower", "--depth", str(depth), "--horizon", str(horizon), *extra]
            records.setdefault("tower", []).append([argv, *_run(argv)])
    for function, thunk in _extra_library_calls():
        records.setdefault(function, []).append(_library_value(thunk))
    return {case: _digest(json.dumps(runs)) for case, runs in records.items()}


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [case for case in expected if actual[case] != expected[case]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {GOLDEN}", file=sys.stderr)
