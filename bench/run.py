"""Benchmark harness for substchaos.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each operation is one in-process call of
``substchaos.cli.main`` with stdout and stderr captured; operations run
in a closed loop (one client, each call starts when the previous one has
returned).  A run repeats the workload's cycle of operations until
``--seconds`` seconds have passed and the workload's number of cycles
(``workloads.Plan.cycles``) is done, and stops only at the end of a
cycle, so every run covers the same inputs.

On a shared two-vCPU virtual machine the same work runs up to twice as
slow from one second or minute to the next, as other tenants load the
host; process time slows with wall time, so it is no way out.  Over ten
runs, the fastest of three tries of every operation still spread up to
37 % in a run's mean, median and 90th percentile.  So every time is
quoted at a reference speed: a fixed piece of pure-Python work (the
calibration, ``calibration_s``) runs before the first operation and after
every one, and an operation's time is scaled by
``CALIBRATION_REFERENCE_S`` over the median of the two calibrations
before it and the two after it.  An operation's latency is the median of
its scaled times in the first ``Plan.cycles`` cycles; ``op_mean_ms``,
``op_p50_ms`` and ``op_p90_ms`` are the mean, median and 90th percentile
of these latencies over the cycle's operations (for one client in a
closed loop, ``1000 / op_mean_ms`` operations complete per second at the
reference speed).  A cycle holds at least ``MIN_OPS`` operations, so the
90th percentile has ten samples beyond it.  ``setup_s`` is the median of
``2 * SETUP_REPEATS`` set-ups, half before the loop and half after it,
each scaled by the calibrations just before and after it.
Every output is then checked against references that do not use the
package (``oracle.py``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  The line before it gives the sha256 of the outputs
of the first ``DIGEST_OPS`` operations, which is the same for the same
seed as long as the program's output does not change.  The exit code is 0 only
when every output is correct.

With ``--trace 1`` the first operations of the workload run twice, first
untraced and then with spans around the package's public functions
(``spans.py``); the spans are written to
``.bench_work/trace-<workload>-<seed>.csv``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "substchaos"

MIN_OPS = 100
DIGEST_OPS = 100
SETUP_REPEATS = 5

# The calibration: a fixed piece of pure-Python work of the kind the
# package does (iterate a substitution, collect the factors of the
# image), timed beside every operation and every set-up.
CALIBRATION_RULES = {"a": "aba", "b": "bca", "c": "cca"}
CALIBRATION_DEPTH = 6
# Its time, in seconds, at the speed the scaled metrics are quoted for:
# about its fastest on a shared two-vCPU virtual machine (Python 3.11).
CALIBRATION_REFERENCE_S = 1.6e-4

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import BUILDERS  # noqa: E402


# ---------------------------------------------------------------------------
# calibration


def calibration_s():
    """Seconds the calibration work takes now."""
    start = time.perf_counter()
    word = "a"
    for _ in range(CALIBRATION_DEPTH):
        word = "".join([CALIBRATION_RULES[c] for c in word])
    factors = {word[i : i + 6] for i in range(len(word) - 5)}
    if len(factors) < 2:
        raise RuntimeError("calibration word has a single factor")
    return time.perf_counter() - start


def scaled(seconds, calibrations):
    """``seconds`` at the reference speed: scaled by how much longer than
    ``CALIBRATION_REFERENCE_S`` the median of ``calibrations``, timed
    around it, took."""
    return seconds * CALIBRATION_REFERENCE_S / statistics.median(calibrations)


# ---------------------------------------------------------------------------
# set-up


def _fresh_package():
    """Import the package from scratch, so no cache survives a set-up."""
    for name in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".cli")
    return sys.modules[PACKAGE]


def package_caches():
    """Every ``lru_cache`` defined in the package (collected before any
    tracing wrapper replaces the module bindings)."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith(PACKAGE):
            continue
        for value in vars(module).values():
            if (
                hasattr(value, "cache_info")
                and hasattr(value, "cache_clear")
                and getattr(value, "__module__", "") == name
            ):
                caches[id(value)] = value
    return list(caches.values())


def set_up_once(workload, seed, workdir):
    """Import, generate and write the inputs.  Returns (seconds at the
    reference speed, plan)."""
    shutil.rmtree(workdir, ignore_errors=True)
    before = calibration_s()
    start = time.perf_counter()
    workdir.mkdir(parents=True)
    plan = BUILDERS[workload](seed, workdir, _fresh_package())
    seconds = time.perf_counter() - start
    return scaled(seconds, [before, calibration_s()]), plan


def setup(workload, seed, workdir):
    """Set up ``SETUP_REPEATS`` times; the plan of the last repetition
    runs.  Returns (set-up times, plan, package caches, all cleared)."""
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, plan = set_up_once(workload, seed, workdir)
        times.append(seconds)
    if len(plan.cycle) < MIN_OPS:
        raise RuntimeError(f"{workload}: a cycle of {len(plan.cycle)} operations")
    caches = package_caches()
    for cache in caches:
        cache.cache_clear()
    # Leave what set-up made to no collection: the collection before
    # every operation then sees only what operations made.
    gc.collect()
    gc.freeze()
    return times, plan, caches


# ---------------------------------------------------------------------------
# the closed loop


def _run_one(main, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = tracer.op(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        finally:
            latency = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), latency


def run_loop(main, plan, caches, sink, seconds, cycles, max_ops=None, tracer=None, after_op=None):
    """Repeat the plan's cycle until ``seconds`` have passed and
    ``cycles`` cycles are done, stopping only at the end of a cycle; or
    stop as soon as ``max_ops`` are done.  Outputs go to ``sink`` (one
    JSON line per operation) so they do not add to the resident memory
    measured.  The calibration runs before the first operation and after
    each one.  Returns (operations, latencies, calibration times, output
    digest); operation i ran between calibrations i and i + 1."""
    ops, latencies, calibrations = [], [], [calibration_s()]
    digest = hashlib.sha256()
    start = time.perf_counter()
    done = 0
    while True:
        if plan.cold and ops:
            for cache in caches:
                cache.cache_clear()
        for op in plan.cycle:
            # A command starts in a fresh process, with no garbage of an
            # earlier one to collect.
            gc.collect()
            code, out, err, latency = _run_one(main, list(op.argv), tracer)
            record = (json.dumps([code, out, err]) + "\n").encode("utf-8")
            sink.write(record)
            if len(ops) < DIGEST_OPS:
                digest.update(record)
            ops.append(op)
            latencies.append(latency)
            calibrations.append(calibration_s())
            if after_op:
                after_op()
            if max_ops and len(ops) >= max_ops:
                return ops, latencies, calibrations, digest.hexdigest()
        done += 1
        if done >= cycles and time.perf_counter() - start >= seconds:
            return ops, latencies, calibrations, digest.hexdigest()


# ---------------------------------------------------------------------------
# output checks


def check_outputs(ops, records, schema):
    """Returns (per-operation failure reason or None, exit codes)."""
    from jsonschema import Draft202012Validator

    validator = Draft202012Validator(schema)
    reasons = []
    classes = {}
    evidence = []
    memo = {}
    for i, (op, (code, out, err)) in enumerate(zip(ops, records)):
        # classify and simulate outputs are compared across a family, so
        # only the standalone checks are memoized
        key = (op, code, out, err) if op.kind in ("analyze", "language", "tower") else None
        if key in memo:
            reasons.append(memo[key])
            continue
        reason = None
        if code == 3 and op.budget_ok:
            reason = oracle.check_budget_exit(code, out, err)
        elif code != 0:
            reason = f"exit code {code}: {err.strip()[-300:]}"
        else:
            try:
                doc = json.loads(out)
            except json.JSONDecodeError:
                doc = None
                reason = "stdout is not one JSON document"
            if doc is not None:
                try:
                    reason = _check_doc(op, doc, validator, classes, evidence, i)
                except (KeyError, TypeError, ValueError) as exc:
                    reason = f"malformed output: {exc!r}"
        if key is not None:
            memo[key] = reason
        reasons.append(reason)
    for family, seen in classes.items():
        if len(seen) > 1:
            for i in seen.values():
                reasons[i] = reasons[i] or f"{family}: class changes under the shift"
    for family, i, doc in evidence:
        if family in classes and len(classes[family]) == 1:
            (verdict,) = classes[family]
            reasons[i] = reasons[i] or oracle.check_evidence(verdict, doc)
    return reasons, [r[0] for r in records]


def _check_doc(op, doc, validator, classes, evidence, i):
    if op.kind == "analyze":
        return oracle.check_analyze(op.ref, doc, validator)
    if op.kind == "language":
        rules, length = op.ref
        return oracle.check_language(rules, length, doc)
    if op.kind == "classify":
        classes.setdefault(op.ref, {})[doc["class"]] = i
        return None
    if op.kind == "simulate":
        evidence.append((op.ref, i, doc))
        return None
    if op.kind == "tower":
        return oracle.check_tower(doc, *op.ref)
    return f"unknown operation kind {op.kind}"


def read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


# ---------------------------------------------------------------------------
# metrics


def scaled_latencies(latencies, calibrations):
    """Every latency at the reference speed, scaled by the two
    calibrations run before it and the two run after it (one slow
    calibration, cut by an interrupt, does not set the scale)."""
    return [
        scaled(t, calibrations[max(0, i - 1) : i + 3]) for i, t in enumerate(latencies)
    ]


def latency_samples(plan, latencies):
    """One sample per operation of the cycle: the median of its scaled
    latencies in the first ``plan.cycles`` cycles; every latency when a
    run stopped short of them (the self-test's tiny runs)."""
    n = len(plan.cycle)
    if len(latencies) < plan.cycles * n:
        return latencies
    return [
        statistics.median(latencies[c * n + i] for c in range(plan.cycles)) for i in range(n)
    ]


def end_to_end(setup_s, samples, codes, peak_rss_kb):
    """The mean and percentiles are taken over ``samples``."""
    cuts = statistics.quantiles(samples, n=100)
    return {
        "setup_s": (setup_s, "s"),
        "op_mean_ms": (1000 * statistics.fmean(samples), "ms"),
        "op_p50_ms": (1000 * cuts[49], "ms"),
        "op_p90_ms": (1000 * cuts[89], "ms"),
        "decided_ratio": (sum(1 for c in codes if c == 0) / len(codes), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


UNITS = {"_s": "s", "_ratio": "ratio", "_per_op": "count/op"}


def per_layer(layer, language_cache, cache_entries, overhead):
    metrics = {}
    for name, value in layer.items():
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    info = language_cache.cache_info() if language_cache else None
    lookups = info.hits + info.misses if info else 0
    metrics["substitution.language_cache_hit_ratio"] = (
        info.hits / lookups if lookups else 0.0,
        "ratio",
    )
    metrics["cache.entries"] = (cache_entries, "count")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


# ---------------------------------------------------------------------------
# one run


def execute(workload, seed, seconds, trace, workdir, max_ops=None):
    """Set up, run, check.  Returns (result dict, digest line, failures)
    where failures lists (operation, reason)."""
    setup_times, plan, caches = setup(workload, seed, workdir)
    main = sys.modules[PACKAGE + ".cli"].main
    schema = sys.modules[PACKAGE + ".report"].REPORT_SCHEMA
    outputs = workdir / "outputs.jsonl"
    with open(outputs, "wb") as sink:
        if not trace:
            ops, latencies, calibrations, digest = run_loop(
                main, plan, caches, sink, seconds, plan.cycles, max_ops
            )
            digested = len(ops)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # Set up as often again after the loop, so a slow spell of the
            # machine at start-up does not set the median.
            for _ in range(SETUP_REPEATS):
                setup_times.append(set_up_once(workload, seed, workdir / "again")[0])
        else:
            count = min(plan.trace_ops, max_ops or plan.trace_ops)
            plain_ops, plain, plain_calibrations, digest = run_loop(
                main, plan, caches, sink, 0, 1, count
            )
            digested = len(plain_ops)
            for cache in caches:
                cache.cache_clear()
            language_cache = next(
                (c for c in caches if c.__name__ == "language_chr"), None
            )
            tracer = Tracer()
            for name in tracer.install():
                sys.stderr.write(f"trace: {name} not found, its metrics read 0\n")
            entries = [0]

            def sample_caches():
                entries[0] = max(entries[0], sum(c.cache_info().currsize for c in caches))

            traced_ops, traced, traced_calibrations, _ = run_loop(
                main, plan, caches, sink, 0, 1, count, tracer, sample_caches
            )
            ops = plain_ops + traced_ops
            overhead = (
                sum(scaled_latencies(traced, traced_calibrations))
                / sum(scaled_latencies(plain, plain_calibrations))
                - 1
            )
            layer = tracer.layer_metrics(len(traced_ops))
            metrics = per_layer(layer, language_cache, entries[0], overhead)
            tracer.write(ROOT / ".bench_work" / f"trace-{workload}-{seed}.csv")
    reasons, codes = check_outputs(ops, read_records(outputs), schema)
    failures = [(op, r) for op, r in zip(ops, reasons) if r]
    if not trace:
        samples = latency_samples(plan, scaled_latencies(latencies, calibrations))
        metrics = end_to_end(statistics.median(setup_times), samples, codes, peak_rss_kb)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    digest_line = f"{digest} over the first {min(digested, DIGEST_OPS)} operations"
    return result, digest_line, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no {PACKAGE} sources under {SRC}; run from a repository checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"run-{args.workload}-{args.seed}"
    try:
        result, digest, failures = execute(
            args.workload, args.seed, args.seconds, args.trace, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op, reason in failures[:20]:
        sys.stderr.write(f"wrong output: {' '.join(op.argv)[:200]}: {reason}\n")
    print(f"output_sha256 {digest}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
