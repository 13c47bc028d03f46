"""Span tracing installed from outside the package.

``Tracer.install`` replaces selected public functions with wrappers in
every ``substchaos`` module that binds them (and two methods of
``RepresentedPoint``).  Each call records a span: name, start, end,
parent span, a work count and the exception it raised, if any.  Spans
stay in memory until ``write`` saves them; ``layer_metrics`` turns them
into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
import time


def _length(args, kwargs, result):
    return len(result)


def _window(args, kwargs, result):
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    return 2 * radius + 1


def _positions(args, kwargs, result):
    horizon = args[2] if len(args) > 2 else kwargs["horizon"]
    return horizon + 1


def _witness_level(args, kwargs, result):
    return 0 if result is None else result[1]


def _rounds(args, kwargs, result):
    return len(result[1])


def _entries(args, kwargs, result):
    return len(result.entries)


# Work count of a cached function: the words it returns on a cache miss.
MISS_WORDS = "words returned on a cache miss"

# (module, attribute or "Class.method", span name, work count)
PROBES = (
    ("substitution", "parse_substitution", "substitution.parse", None),
    ("substitution", "language_chr", "substitution.language", MISS_WORDS),
    ("substitution", "iterate_chr", "substitution.iterate", _length),
    ("substitution", "iterate_prefix", "substitution.iterate", _length),
    ("substitution", "iterate_suffix", "substitution.iterate", _length),
    ("substitution", "is_primitive", "substitution.primitive", None),
    ("reduction", "is_simplifiable", "reduction.simplify", None),
    ("reduction", "decide_infinite_trace", "reduction.decide", _rounds),
    ("reduction", "one_to_one_reduction", "reduction.one_to_one", None),
    ("pairs", "enumerate_ly_orbits", "pairs.orbits", _length),
    ("pairs", "classify_pair", "pairs.classify", None),
    ("pairs", "ly_witness", "pairs.ly_engine", _witness_level),
    ("pairs", "uncountable_witness", "pairs.double_engine", _witness_level),
    ("pairs", "li_yorke_certificate", "pairs.certificate", None),
    ("pairs", "uncountable_certificate", "pairs.certificate", None),
    ("pairs", "coincidence_class", "pairs.coincidence", None),
    ("pairs", "construct_ly_pair", "pairs.construct", None),
    ("pairs", "construct_recurrent_ly_pair", "pairs.construct", None),
    ("streams", "RepresentedPoint.expand", "streams.expand", _window),
    ("streams", "RepresentedPoint.shift", "streams.shift", None),
    ("streams", "point_from_literal", "streams.point_parse", None),
    ("simulate", "empirical_class", "simulate.evidence", _positions),
    ("tower", "verify_scrambled_S", "tower.verify", _entries),
    ("report", "analyze", "report.analyze", None),
    ("cli", "_emit", "cli.emit", None),
)

PACKAGE = "substchaos"
ROOT = "cli"
# Span fields.
NAME, START, END, PARENT, COUNT, ERROR, NESTED, IN_ORBITS = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._active = {}

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        active = self._active
        depth = active.get(name, 0)
        span = [
            name,
            time.perf_counter(),
            0.0,
            self._stack[-1] if self._stack else -1,
            0,
            None,
            depth > 0,
            active.get("pairs.orbits", 0) > 0,
        ]
        active[name] = depth + 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()
        self._active[span[NAME]] -= 1

    def call(self, name, fn, *args, count=None, miss_counter=None, **kwargs):
        span = self._open(name)
        misses = miss_counter() if miss_counter else 0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            self._close(span)
        if count is not None:
            span[COUNT] = count(args, kwargs, result)
        elif miss_counter is not None and miss_counter() > misses:
            span[COUNT] = len(result)
        return result

    def op(self, fn, *args):
        """Run one operation under a root span."""
        return self.call(ROOT, fn, *args)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every probe; returns the names that could not be found."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith(PACKAGE)]
        missing = []
        for modname, attr, name, count in PROBES:
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, method, None)
            if original is None:
                missing.append(f"{modname}.{attr}")
                continue
            miss_counter = None
            if count is MISS_WORDS:
                count = None
                miss_counter = lambda f=original: f.cache_info().misses
            wrapper = self._wrapper(name, original, count, miss_counter)
            if owner:
                setattr(holder, method, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return missing

    def _wrapper(self, name, original, count, miss_counter):
        call = self.call

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return call(
                name, original, *args, count=count, miss_counter=miss_counter, **kwargs
            )

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,count,error\n")
            for s in self.spans:
                fh.write(
                    f"{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},"
                    f"{s[COUNT]},{s[ERROR] or ''}\n"
                )

    def layer_metrics(self, ops):
        """Per-layer totals over the traced operations."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        op_has_analyze = {}
        root_of = [0] * len(spans)
        for i, s in enumerate(spans):
            parent = s[PARENT]
            root_of[i] = i if parent < 0 else root_of[parent]
            if parent >= 0:
                child_time[parent] += s[END] - s[START]
            if s[NAME] == "report.analyze":
                op_has_analyze[root_of[i]] = True

        total = {}
        self_time = {}
        calls = {}
        work = {}
        errors = {}
        dumps = cli_self = 0.0
        orbit_classify = 0
        for i, s in enumerate(spans):
            name = s[NAME]
            duration = s[END] - s[START]
            own = duration - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            work[name] = work.get(name, 0) + s[COUNT]
            self_time[name] = self_time.get(name, 0.0) + own
            if not s[NESTED]:
                total[name] = total.get(name, 0.0) + duration
            if s[ERROR]:
                errors[(name, s[ERROR])] = errors.get((name, s[ERROR]), 0) + 1
            if name == "pairs.classify" and s[IN_ORBITS]:
                orbit_classify += 1
            if name == ROOT:
                cli_self += own
            elif name == "cli.emit":
                if op_has_analyze.get(root_of[i]):
                    dumps += duration
                else:
                    cli_self += duration

        def t(name):
            return total.get(name, 0.0)

        orbits = work.get("pairs.orbits", 0)
        return {
            "substitution.language_s": t("substitution.language"),
            "substitution.language_calls": calls.get("substitution.language", 0),
            "substitution.language_words": work.get("substitution.language", 0),
            "substitution.parse_s": t("substitution.parse"),
            "substitution.iterate_s": t("substitution.iterate"),
            "substitution.symbols_iterated": work.get("substitution.iterate", 0),
            "substitution.primitive_s": t("substitution.primitive"),
            "reduction.simplify_s": t("reduction.simplify"),
            "reduction.simplify_calls_per_op": calls.get("reduction.simplify", 0) / ops,
            "reduction.budget_errors": errors.get(
                ("reduction.simplify", "SearchBudgetError"), 0
            ),
            "reduction.decide_self_s": self_time.get("reduction.decide", 0.0),
            "reduction.rounds": work.get("reduction.decide", 0),
            "reduction.one_to_one_s": t("reduction.one_to_one"),
            "pairs.orbits_self_s": self_time.get("pairs.orbits", 0.0),
            "pairs.orbit_yield_ratio": orbits / orbit_classify if orbit_classify else 0.0,
            "pairs.classify_s": t("pairs.classify"),
            "pairs.classify_calls": calls.get("pairs.classify", 0),
            "pairs.ly_engine_s": t("pairs.ly_engine"),
            "pairs.ly_engine_levels": work.get("pairs.ly_engine", 0),
            "pairs.double_engine_s": t("pairs.double_engine"),
            "pairs.double_engine_levels": work.get("pairs.double_engine", 0),
            "pairs.certificate_s": t("pairs.certificate"),
            "pairs.coincidence_s": t("pairs.coincidence"),
            "pairs.construct_s": t("pairs.construct"),
            "streams.expand_s": t("streams.expand"),
            "streams.expand_calls": calls.get("streams.expand", 0),
            "streams.symbols_requested": work.get("streams.expand", 0),
            "streams.shift_s": t("streams.shift"),
            "streams.shift_calls": calls.get("streams.shift", 0),
            "streams.point_parse_s": t("streams.point_parse"),
            "simulate.evidence_s": t("simulate.evidence"),
            "simulate.positions_scanned": work.get("simulate.evidence", 0),
            "tower.verify_s": t("tower.verify"),
            "tower.matrix_entries": work.get("tower.verify", 0),
            "report.analyze_self_s": self_time.get("report.analyze", 0.0),
            "report.dumps_s": dumps,
            "cli.self_s": cli_self,
        }
