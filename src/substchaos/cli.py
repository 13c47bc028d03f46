"""Command-line front end.

Subcommands: analyze, reduce, decide, classify, simulate, tower,
language.  All output is deterministic for fixed inputs and flags; JSON
goes to stdout, machine-readable errors to stderr.  Exit codes: 0 ok,
1 parse error, 2 precondition failure, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import __version__
from .errors import BudgetExceededError, ParseError, SubstitutionError
from .pairs import classify_pair
from .report import analyze
from .reduction import decide_infinite_trace, one_to_one_reduction
from .simulate import DEFAULT_WINDOW, _evidence_and_radii, default_horizon, empirical_class
from .streams import point_from_literal
from .substitution import parse_substitution, read_json, sorted_language
from .tower import verify_scrambled_S

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})")


def _load_point(subst, literal):
    if literal.startswith("@"):
        literal = _read_text(literal[1:])
    return point_from_literal(subst, read_json(literal, "invalid point literal"))


_quote = json.encoder.encode_basestring
_compact = json.JSONEncoder(ensure_ascii=False).encode
_NAMES = {True: "true", False: "false", None: "null"}.__getitem__
# the text of a value of exactly one of these types, keyed by the type
_ATOMS = {str: _quote, int: int.__repr__, bool: _NAMES, type(None): _NAMES}


def _write(value, out, pad):
    """Append the pieces of ``value`` as ``json.dumps`` writes it with
    ``sort_keys=True, indent=2, ensure_ascii=False``; ``pad`` is a newline
    and the indent of the enclosing line.  The stdlib takes its pure-Python
    encoder whenever ``indent`` is set.  Here a value of exact type
    ``str``, ``int``, ``bool`` or ``None`` inside a dict or list is written
    in place, with no call of ``_write`` of its own; a list whose items
    all have the same one of these exact types is written in one C-speed
    join; and any other scalar goes through the compact C encoder, so
    floats, NaN and int or str subclasses read as before.  A key that is not a string
    is refused with ``TypeError``."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        lead = "{" + inner
        for key in sorted(value):
            item = value[key]
            atom = _ATOMS.get(type(item))
            if atom is None:
                out.append(lead + _quote(key) + ": ")
                _write(item, out, inner)
            else:
                out.append(lead + _quote(key) + ": " + atom(item))
            lead = "," + inner
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        kinds = set(map(type, value))
        atom = _ATOMS.get(kinds.pop()) if len(kinds) == 1 else None
        if atom is not None:
            out.append("[" + inner + ("," + inner).join(map(atom, value)) + pad + "]")
            return
        lead = "[" + inner
        for item in value:
            atom = _ATOMS.get(type(item))
            if atom is None:
                out.append(lead)
                _write(item, out, inner)
            else:
                out.append(lead + atom(item))
            lead = "," + inner
        out.append(pad + "]")
    else:
        out.append(_compact(value))


def _emit(doc):
    """Print ``doc`` to stdout in one write, byte for byte
    ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)``
    and a newline."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    sys.stdout.write("".join(out))


def _word_str(word):
    return word if isinstance(word, str) else " ".join(word)


def cmd_analyze(args):
    subst = parse_substitution(_read_text(args.path))
    report = analyze(subst, brute_bound=args.brute_bound)
    if args.json:
        _emit(report.to_json_dict())
    else:
        sys.stdout.write(report.table() + "\n")
    return EXIT_OK


def cmd_reduce(args):
    subst = parse_substitution(_read_text(args.path))
    red = one_to_one_reduction(subst)
    _emit(
        {
            "alphabet": list(red.reduced.alphabet),
            "rules": {t: _word_str(red.reduced.image(t)) for t in red.reduced.alphabet},
            "letter_map": {a: b for a, b in red.letter_map},
            "steps": red.steps,
        }
    )
    return EXIT_OK


def cmd_decide(args):
    subst = parse_substitution(_read_text(args.path))
    infinite, trace = decide_infinite_trace(subst)
    _emit({"x_tau_infinite": infinite, "decision_trace": trace})
    return EXIT_OK


def cmd_language(args):
    subst = parse_substitution(_read_text(args.path))
    words = sorted_language(subst, args.length)
    if words and isinstance(words[0], tuple):
        # multi-character tokens decode to token tuples; print them space-joined
        words = [" ".join(w) for w in words]
    _emit({"length": args.length, "count": len(words), "words": words})
    return EXIT_OK


def cmd_classify(args):
    subst = parse_substitution(_read_text(args.path))
    x = _load_point(subst, args.x)
    y = _load_point(subst, args.y)
    verdict = classify_pair(x, y)
    _emit(verdict.to_json())
    return EXIT_OK


def cmd_simulate(args):
    subst = parse_substitution(_read_text(args.path))
    x = _load_point(subst, args.x)
    y = _load_point(subst, args.y)
    horizon = args.horizon if args.horizon is not None else default_horizon(subst)
    if args.csv:
        report, samples = _evidence_and_radii(x, y, horizon, args.window)
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("n,radius\n")
                for n, r in samples:
                    fh.write(f"{n},{r}\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.csv}: {exc.strerror}")
    else:
        report = empirical_class(x, y, horizon, args.window)
    _emit(report.to_json())
    return EXIT_OK


def cmd_tower(args):
    report = verify_scrambled_S(args.depth, args.horizon)
    if args.json:
        _emit(report.to_json())
    else:
        sys.stdout.write(report.table() + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ``ParseError``s, so malformed argv
    meets the JSON error contract (exit 1) like any other malformed input.
    Subparsers are built from the same class.  ``--help`` and ``--version``
    still print and exit 0.  ``build_parser`` sets ``commands`` on the
    top-level parser: each subcommand's name and its parser."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="substchaos",
        description="Li-Yorke pair analysis for constant-length substitutions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full analysis report for a substitution file")
    pa.add_argument("path")
    pa.add_argument("--json", action="store_true", help="emit the JSON report")
    pa.add_argument(
        "--brute-bound",
        type=int,
        default=None,
        help="cross-check the pair decisions against word scans up to this length",
    )
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("reduce", help="one-to-one reduction")
    pr.add_argument("path")
    pr.set_defaults(func=cmd_reduce)

    pd = sub.add_parser("decide", help="finiteness of the generated subshift")
    pd.add_argument("path")
    pd.set_defaults(func=cmd_decide)

    pl = sub.add_parser("language", help="all subshift words of a given length")
    pl.add_argument("path")
    pl.add_argument("length", type=int)
    pl.set_defaults(func=cmd_language)

    pc = sub.add_parser("classify", help="exact classification of a point pair")
    pc.add_argument("path")
    pc.add_argument("--x", required=True, help="point literal JSON (or @file)")
    pc.add_argument("--y", required=True, help="point literal JSON (or @file)")
    pc.set_defaults(func=cmd_classify)

    ps = sub.add_parser("simulate", help="finite-horizon orbit evidence for a pair")
    ps.add_argument("path")
    ps.add_argument("--x", required=True)
    ps.add_argument("--y", required=True)
    ps.add_argument("--horizon", type=int, default=None)
    ps.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    ps.add_argument("--csv", default=None, help="write (n, radius) samples to a CSV file")
    ps.set_defaults(func=cmd_simulate)

    pt = sub.add_parser("tower", help="verify the countable scrambled family levelwise")
    pt.add_argument("--depth", type=int, default=3)
    pt.add_argument("--horizon", type=int, default=3**9)
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(func=cmd_tower)

    parser.commands = sub.choices
    return parser


@lru_cache(maxsize=1)
def _parser():
    """The top-level parser of ``main``, built with its subparsers on first
    use rather than at import and then shared by every call in the
    process.  Only a process that calls ``main`` more than once (a test
    suite, a benchmark) saves anything: the ``substchaos`` command runs one
    call per process and builds the parser once either way.  Sharing is
    safe, also across threads: parsing only reads the parsers."""
    return build_parser()


def _parse(argv):
    """``_parser().parse_args(argv)``, in one pass of argparse where
    ``argv`` starts with a subcommand's name: the rest goes straight to
    that subcommand's parser, which is what the top-level parser hands it
    to, and arguments left over are refused with the top-level parser's
    own message.  Every other ``argv`` goes through the top-level parser.
    So does one with an argument that starts with ``--=``: the top-level
    parser refuses it as an ambiguous abbreviation of ``--help`` and
    ``--version`` before the subcommand's parser sees anything."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    if command is None or any(arg.startswith("--=") for arg in argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        args = _parse(argv)
        return args.func(args)
    except ParseError as exc:
        _error(exc)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        _error(exc)
        return EXIT_BUDGET
    except SubstitutionError as exc:
        _error(exc)
        return EXIT_PRECONDITION


def _error(exc):
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
