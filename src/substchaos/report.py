"""Full per-substitution analysis bundle and its JSON form."""

from __future__ import annotations

import json

from . import __version__, substitution
from .errors import InvariantError, PreconditionError, charge
from .pairs import (
    STRONG_EQUIVALENCE_CHAIN,
    coincidence_class,
    enumerate_ly_orbits,
    has_ly_pairs,
    has_uncountable_ly,
    li_yorke_certificate,
)
from .reduction import decide_infinite_trace, one_to_one_reduction
from .streams import fiber_bound
from .substitution import _charge_pair_letters, is_primitive, json_word
from .substitution import pair_substitution


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "tool_version",
        "input",
        "primitive",
        "constant_length",
        "x_tau_infinite",
        "is_elementary",
        "one_to_one_reduction",
        "decision_trace",
    ],
    "properties": {
        "tool_version": {"type": "string"},
        "input": {
            "type": "object",
            "required": ["alphabet", "rules"],
            "properties": {
                "alphabet": {"type": "array", "items": {"type": "string"}},
                "rules": {"type": "object"},
            },
        },
        "primitive": {"type": "boolean"},
        "constant_length": {"type": "integer", "minimum": 2},
        "x_tau_infinite": {"type": "boolean"},
        "is_elementary": {"type": "boolean"},
        "one_to_one_reduction": {
            "type": "object",
            "required": ["alphabet", "rules", "letter_map", "steps"],
        },
        "decision_trace": {"type": "array"},
        "coincidence_class": {
            "enum": ["no_coincidence", "partial", "overall"],
        },
        "has_li_yorke": {"type": "boolean"},
        "li_yorke_certificate": {"type": ["object", "null"]},
        "uncountable_li_yorke": {"type": "boolean"},
        "strong_li_yorke": {"type": "boolean"},
        "strong_equivalence_chain": {"type": "array"},
        "fiber_bound": {"type": "integer", "minimum": 1},
        "orbit_representatives": {"type": "array"},
        "brute_check": {"enum": ["agree", None]},
    },
    "additionalProperties": False,
}


class AnalysisReport:
    """The analysis of one substitution; ``data`` is its JSON document."""

    def __init__(self, data=None):
        self.data = {} if data is None else data

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.data == other.data

    def to_json_dict(self):
        return self.data

    def table(self):
        lines = []
        skip = {"decision_trace", "orbit_representatives", "input", "one_to_one_reduction"}
        for key in sorted(self.data):
            if key in skip:
                continue
            lines.append(f"{key:>24}: {json.dumps(self.data[key], sort_keys=True)}")
        red = self.data["one_to_one_reduction"]
        lines.append(f"{'reduction rules':>24}: {json.dumps(red['rules'], sort_keys=True)}")
        orbits = self.data.get("orbit_representatives")
        if orbits is not None:
            lines.append(f"{'orbit representatives':>24}: {len(orbits)}")
        return "\n".join(lines)


def _brute_scan(subst, word_bound):
    """Direct word scans of the two Li-Yorke criteria, the reference that
    the pair-graph decisions are checked against (``analyze --brute-bound``
    and the test suite); it shares no code with them.

    For letters a < b and every length ``p^m <= word_bound``, the pair
    word of σ^m(a) over σ^m(b) (the pair letter ``(a, b)`` iterated under
    the pair substitution) is scanned for the first occurrence ``j`` of
    ``(a, b)``: Li-Yorke when both a diagonal and an off-diagonal
    position follow ``j``, uncountable when a diagonal position and a
    second occurrence of ``(a, b)`` follow it.
    """
    n, p = subst.size, subst.constant_length
    pairs = pair_substitution(subst)
    diagonal = {c: "1" if c // n == c % n else "0" for c in range(n * n)}
    ly = unc = False
    # one target at a time, so at most one pair word of length N is held
    for target in (chr(a * n + b) for a in range(n) for b in range(a + 1, n)):
        word = target
        length = p
        while length <= word_bound:
            word = pairs.apply(word)
            j = word.find(target)
            if j >= 0:
                flags = word.translate(diagonal)
                if flags.rfind("1") > j:
                    ly = ly or flags.rfind("0") > j
                    unc = unc or word.find(target, j + 1) > j
            length *= p
    return ly, unc


def analyze(subst, brute_bound=None):
    """Run the full pipeline and assemble the report.

    Fields appear exactly when their preconditions hold: pair analysis
    requires a primitive constant-length substitution with an infinite
    subshift, and the orbit list additionally requires countably many
    Li-Yorke pairs.  A brute-force bound is refused before anything is
    built when it admits no word, passes the word budget, or comes with an
    alphabet too large for the pair substitution of the scan (the input
    alphabet bounds the reduced one, and the check precedes the finiteness
    decision).
    """
    if not is_primitive(subst):
        raise PreconditionError("analysis requires a primitive substitution")
    if subst.constant_length is None:
        raise PreconditionError("analysis requires a constant-length substitution")
    if subst.constant_length < 2:
        raise PreconditionError("analysis requires a constant length of at least 2")
    if brute_bound is not None and brute_bound < subst.constant_length:
        raise PreconditionError(f"brute-force bound {brute_bound} admits no word to scan")
    if brute_bound is not None:
        message = "brute-force bound {} exceeds the word budget"
        charge(brute_bound, substitution.DEFAULT_WORD_BUDGET, message)
        _charge_pair_letters(subst)
    data = {}
    data["tool_version"] = __version__
    data["input"] = {
        "alphabet": list(subst.alphabet),
        "rules": {tok: json_word(subst.image(tok)) for tok in subst.alphabet},
    }
    data["primitive"] = True
    data["constant_length"] = subst.constant_length
    infinite, trace = decide_infinite_trace(subst)
    data["x_tau_infinite"] = infinite
    data["decision_trace"] = trace
    data["is_elementary"] = trace[0]["action"] != "simplified"
    red = one_to_one_reduction(subst)
    data["one_to_one_reduction"] = {
        "alphabet": list(red.reduced.alphabet),
        "rules": {tok: json_word(red.reduced.image(tok)) for tok in red.reduced.alphabet},
        "letter_map": {a: b for a, b in red.letter_map},
        "steps": red.steps,
    }
    if not infinite:
        return AnalysisReport(data)
    reduced = red.reduced
    cls = coincidence_class(reduced)
    data["coincidence_class"] = cls.kind.value
    data["has_li_yorke"] = has_ly_pairs(reduced)
    cert = li_yorke_certificate(reduced) if data["has_li_yorke"] else None
    data["li_yorke_certificate"] = None if cert is None else cert.to_json()
    data["uncountable_li_yorke"] = has_uncountable_ly(reduced)
    data["strong_li_yorke"] = data["uncountable_li_yorke"]
    if data["strong_li_yorke"]:
        data["strong_equivalence_chain"] = list(STRONG_EQUIVALENCE_CHAIN)
    data["fiber_bound"] = fiber_bound(reduced)
    if data["has_li_yorke"] and not data["uncountable_li_yorke"]:
        orbits = enumerate_ly_orbits(reduced)
        data["orbit_representatives"] = [
            [x.to_literal(), y.to_literal()] for x, y in orbits
        ]
    if brute_bound is not None:
        ly, unc = _brute_scan(reduced, brute_bound)
        engine_ly = data["has_li_yorke"]
        engine_unc = data["uncountable_li_yorke"]
        if (ly and not engine_ly) or (unc and not engine_unc):
            raise InvariantError("engine contradicts the brute-force scan")
        data["brute_check"] = "agree"
    return AnalysisReport(data)
