"""Command-line surface: subcommands, exit codes, JSON shape,
determinism, and the one parser a process shares between calls."""

import argparse
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from substchaos import REPORT_SCHEMA, cli, parse_substitution, point_from_literal, report, simulate
from substchaos.errors import ParseError, SubstitutionError
from substchaos.substitution import DEFAULT_WORD_BUDGET, language_chr

from conftest import (
    ABA,
    COUNTABLE_CLASSES,
    FIXTURE_SOURCES,
    LY_TWO,
    MORSE,
    cyclic_document,
    radius_samples,
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "substchaos.cli", *args],
        capture_output=True,
        text=True,
    )


def dumps(value):
    """The stdout contract: the stdlib's sorted, indented, non-ASCII-keeping
    JSON and a newline."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@pytest.fixture()
def morse_file(tmp_path):
    path = tmp_path / "morse.txt"
    path.write_text(MORSE)
    return str(path)


@pytest.fixture()
def ly_file(tmp_path):
    path = tmp_path / "ly.txt"
    path.write_text(LY_TWO)
    return str(path)


def test_analyze_json_fields(morse_file):
    res = run_cli("analyze", morse_file, "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["primitive"] is True
    assert doc["x_tau_infinite"] is True
    assert doc["coincidence_class"] == "no_coincidence"
    assert doc["has_li_yorke"] is False
    assert doc["fiber_bound"] == 6
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_analyze_text_table(morse_file):
    res = run_cli("analyze", morse_file)
    assert res.returncode == 0
    assert "has_li_yorke" in res.stdout


def test_analyze_finite_has_no_pair_fields(tmp_path):
    path = tmp_path / "finite.txt"
    path.write_text("0 -> 010\n1 -> 101\n")
    res = run_cli("analyze", str(path), "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["x_tau_infinite"] is False
    assert "has_li_yorke" not in doc
    assert len(doc["one_to_one_reduction"]["alphabet"]) == 2
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_analyze_brute_check(ly_file):
    res = run_cli("analyze", ly_file, "--json", "--brute-bound", "10000")
    doc = json.loads(res.stdout)
    assert doc["brute_check"] == "agree"
    assert doc["has_li_yorke"] is True
    assert doc["uncountable_li_yorke"] is True


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a rule\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 1
    err = json.loads(res.stderr)
    assert err["error"] == "ParseError"


def test_precondition_exit_code(tmp_path):
    path = tmp_path / "variable.txt"
    path.write_text("0 -> 01\n1 -> 0\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 2


def test_constant_length_one_exit_code(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("a -> a\n")
    res = run_cli("analyze", str(path), "--json")
    assert res.returncode == 2
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "PreconditionError"


def test_brute_check_contradiction_is_an_error_line(
    morse_file, monkeypatch, capsys
):
    # a scan that reports pairs the engines rule out must surface as the
    # JSON error contract, not as a traceback
    monkeypatch.setattr(report, "_brute_scan", lambda subst, bound: (True, True))
    code = cli.main(["analyze", morse_file, "--json", "--brute-bound", "8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "InvariantError"


@pytest.fixture()
def aba_file(tmp_path):
    path = tmp_path / "aba.txt"
    path.write_text(ABA)
    return str(path)


@pytest.mark.parametrize(
    "bound, code, error",
    [
        (-5, 2, "PreconditionError"),
        (1, 2, "PreconditionError"),
        (2, 2, "PreconditionError"),
        (3, 0, None),
        (DEFAULT_WORD_BUDGET, 0, None),
        (DEFAULT_WORD_BUDGET + 1, 3, "BudgetExceededError"),
        (10**11, 3, "BudgetExceededError"),
    ],
)
def test_brute_bound_limits(aba_file, monkeypatch, bound, code, error):
    # below p (3 for aba) the scan would read no word and still print
    # "agree"; past the word budget it would build words the budget refuses
    # everywhere else.  The scan is stubbed, so no word is built here, and
    # a refused bound must not reach it.
    scanned = []

    def scan(subst, word_bound):
        scanned.append(word_bound)
        return True, False

    monkeypatch.setattr(report, "_brute_scan", scan)
    got, out, err = run_main(["analyze", aba_file, "--json", "--brute-bound", str(bound)])
    assert got == code
    if code:
        assert (out, scanned) == ("", [])
        assert_one_error_line(err, error)
    else:
        assert (err, scanned) == ("", [bound])
        assert json.loads(out)["brute_check"] == "agree"
    if code == 3:
        assert json.loads(err)["message"] == f"brute-force bound {bound} exceeds the word budget"


def test_nonprimitive_exit_code(tmp_path):
    path = tmp_path / "np.txt"
    path.write_text("0 -> 00\n1 -> 11\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 2


def test_budget_exit_code(morse_file, tmp_path):
    x = json.dumps({"kind": "fixed_point", "left": "1", "right": "0"})
    res = run_cli("simulate", morse_file, "--x", x, "--y", x, "--horizon", "9000000")
    assert res.returncode == 3
    assert json.loads(res.stderr)["error"] == "BudgetExceededError"


def test_simulate_has_no_word_budget_option(morse_file, capsys):
    # the word budget is a package constant: --max-word is a usage error
    x = json.dumps({"kind": "fixed_point", "left": "1", "right": "0"})
    code = cli.main(["simulate", morse_file, "--x", x, "--y", x, "--max-word", "20"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ParseError"


def test_alphabet_mismatch_refusal_is_the_same_under_every_hash_seed(tmp_path):
    # the missing and extra letters print sorted, not in string-hash order
    path = tmp_path / "mismatch.json"
    path.write_text(
        json.dumps({"rules": {"a": "ab", "b": "ba"}, "alphabet": ["a", "b", "c", "d", "e", "f"]})
    )
    errors = set()
    for seed in "012":
        res = subprocess.run(
            [sys.executable, "-m", "substchaos.cli", "analyze", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert res.returncode == 1
        errors.add(res.stderr)
    assert errors == {
        json.dumps(
            {
                "error": "ParseError",
                "message": "line 1, column 1: rules/alphabet mismatch"
                " (missing {'c', 'd', 'e', 'f'}, extra set())",
            }
        )
        + "\n"
    }


def test_reduce_command(tmp_path):
    path = tmp_path / "same.txt"
    path.write_text("0 -> 01\n1 -> 01\n")
    res = run_cli("reduce", str(path))
    doc = json.loads(res.stdout)
    assert doc["rules"] == {"0": "00"}
    assert doc["letter_map"] == {"0": "0", "1": "0"}


def test_decide_command(morse_file):
    doc = json.loads(run_cli("decide", morse_file).stdout)
    assert doc["x_tau_infinite"] is True


# g.f through the dictionary {ab, c}, of constant length 800: the
# simplification search places about 1,200 words along one path
DEEP_COMPOSED = (
    f"a -> {'ab' * 399}cc\n"
    f"b -> c{'ab' * 399}c\n"
    f"c -> {'ab' * 400}\n"
)


@pytest.fixture()
def deep_file(tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text(DEEP_COMPOSED)
    return str(path)


def test_decide_walks_a_long_image_without_recursion(deep_file):
    res = run_cli("decide", deep_file)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert [step["action"] for step in doc["decision_trace"]] == ["simplified", "elementary"]
    assert doc["decision_trace"][0]["dictionary"] == ["ab", "c"]
    assert doc["x_tau_infinite"] is True


def test_analyze_walks_a_long_image_without_recursion(deep_file):
    res = run_cli("analyze", deep_file, "--json")
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["constant_length"] == 800


def test_language_command(morse_file):
    doc = json.loads(run_cli("language", morse_file, "3").stdout)
    assert doc["words"] == ["001", "010", "011", "100", "101", "110"]


@pytest.mark.parametrize("length", [1, 2, 3, 17, 65])
def test_language_of_tokens_prints_the_word_by_word_listing(tmp_path, length):
    text = "`zero` -> `zero` x `two`\nx -> `two` `zero` x\n`two` -> x x `zero`"
    path = tmp_path / "tokens.txt"
    path.write_text(text)
    s = parse_substitution(text)
    words = [" ".join(s.decode(w)) for w in sorted(language_chr(s, length))]
    doc = {"length": length, "count": len(words), "words": words}
    assert run_main(["language", str(path), str(length)]) == (0, dumps(doc), "")


@pytest.mark.parametrize(
    "rules, length, code",
    [
        # morse: |L_2| = 4 and |σ^m(a)| = 2^m >= N - 1, so a listing of
        # length N slices 4 · 2^m · N symbols against 2^24
        ("a -> ab\nb -> ba\n", 2048, 0),
        ("a -> ab\nb -> ba\n", 2049, 3),
        ("a -> ab\nb -> ba\n", 10**8, 3),
        ("a -> aa\n", 4096, 0),
        ("a -> aa\n", 10**8, 3),
    ],
)
def test_language_refuses_an_oversized_listing(tmp_path, rules, length, code):
    path = tmp_path / "rules.txt"
    path.write_text(rules)
    got, out, err = run_main(["language", str(path), str(length)])
    assert got == code
    if code:
        assert out == ""
        assert_one_error_line(err, "BudgetExceededError")
    else:
        assert err == ""
        assert json.loads(out)["length"] == length


def test_classify_command(ly_file):
    x = json.dumps({"kind": "stream", "period": [["", "0", "10"]], "left_seed": "0"})
    y = json.dumps({"kind": "stream", "period": [["", "1", "00"]], "left_seed": "0"})
    res = run_cli("classify", ly_file, "--x", x, "--y", y)
    doc = json.loads(res.stdout)
    assert doc["class"] == "LiYorke"
    assert doc["rule"] == "overall-coincidence-recurrent-difference"


def test_classify_past_a_finite_right_end(morse_file):
    # two Thue-Morse points over the digits 0 1^∞: two shifts on, past
    # their finite right sides, they differ at every coordinate
    x = {
        "kind": "stream",
        "preperiod": [["", "0", "1"]],
        "period": [["1", "0", ""], ["0", "1", ""]],
        "right_seed": "0",
    }
    y = {**x, "right_seed": "1"}
    res = run_cli("classify", morse_file, "--x", json.dumps(x), "--y", json.dumps(y))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert (doc["class"], doc["rule"]) == ("Distal", "no-coincidence-separation")


def test_analyze_lists_partial_coincidence_orbits(tmp_path):
    # partial coincidences: one Li-Yorke orbit, over the digits 1^∞, and
    # classify agrees on the listed literals
    path = tmp_path / "partial.txt"
    path.write_text("a -> aba\nb -> aac\nc -> cba")
    res = run_cli("analyze", str(path), "--json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["coincidence_class"] == "partial"
    [(x, y)] = doc["orbit_representatives"]
    assert x["period"] == [["a", "a", "c"], ["a", "b", "a"]]
    assert y["period"] == [["a", "b", "a"], ["a", "a", "c"]]
    res = run_cli("classify", str(path), "--x", json.dumps(x), "--y", json.dumps(y))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert (doc["class"], doc["rule"]) == ("LiYorke", "coincidence-closure-recurrent-difference")


def test_simulate_command_with_csv(ly_file, tmp_path):
    x = json.dumps({"kind": "stream", "period": [["", "0", "10"]], "left_seed": "0"})
    y = json.dumps({"kind": "stream", "period": [["", "1", "00"]], "left_seed": "0"})
    csv_path = tmp_path / "samples.csv"
    res = run_cli(
        "simulate", ly_file, "--x", x, "--y", y, "--horizon", "200", "--csv", str(csv_path)
    )
    doc = json.loads(res.stdout)
    assert doc["horizon"] == 200
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,radius"
    assert len(lines) == 202


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_simulate_csv_that_cannot_be_written_is_a_parse_error(ly_file, tmp_path, where):
    x = json.dumps({"kind": "stream", "period": [["", "0", "10"]], "left_seed": "0"})
    csv_path = tmp_path if where == "directory" else tmp_path / "missing" / "samples.csv"
    res = run_cli("simulate", ly_file, "--x", x, "--y", x, "--horizon", "9", "--csv", str(csv_path))
    assert res.returncode == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "ParseError"
    assert err["message"].startswith(f"cannot write {csv_path}: ")


# nested far past the interpreter's recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def test_deeply_nested_substitution_json_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"rules": ' + DEEP_JSON + "}")
    res = run_cli("analyze", str(path))
    assert res.returncode == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert json.loads(line) == {
        "error": "ParseError",
        "message": "line 1, column 1: invalid JSON: nested too deeply",
    }


def test_deeply_nested_point_literal_is_a_parse_error(morse_file, tmp_path):
    path = tmp_path / "deep_point.json"
    path.write_text(DEEP_JSON)
    res = run_cli("classify", morse_file, "--x", f"@{path}", "--y", f"@{path}")
    assert res.returncode == 1
    assert res.stdout == ""
    (line,) = res.stderr.splitlines()
    assert json.loads(line) == {
        "error": "ParseError",
        "message": "invalid point literal: nested too deeply",
    }


def test_point_literal_with_a_repeated_key_is_a_parse_error(morse_file):
    # json.loads alone would keep the last value of a repeated key
    fixed = '{"kind": "fixed_point", "left": "1", "right": "0"}'
    cases = [
        ('{"kind": "stream", "kind": "fixed_point", "left": "1", "right": "0"}', fixed, "kind"),
        (fixed, '{"kind": "fixed_point", "left": "0", "left": "1", "right": "0"}', "left"),
    ]
    for x, y, key in cases:
        res = run_cli("classify", morse_file, "--x", x, "--y", y)
        assert res.returncode == 1
        assert res.stdout == ""
        (line,) = res.stderr.splitlines()
        assert json.loads(line) == {
            "error": "ParseError",
            "message": f"invalid point literal: duplicate key {key!r}",
        }


def test_simulate_csv_compares_the_windows_once(ly_file, tmp_path, monkeypatch, capsys):
    # the report and the CSV radii are read off one difference-flag string,
    # and match the separate empirical_class and radius_samples outputs
    x = {"kind": "stream", "period": [["", "0", "10"]], "left_seed": "0"}
    y = {"kind": "stream", "period": [["", "1", "00"]], "left_seed": "0"}
    calls = []
    flags = simulate._difference_flags

    def counted(*args):
        calls.append(args)
        return flags(*args)

    monkeypatch.setattr(simulate, "_difference_flags", counted)
    csv_path = tmp_path / "samples.csv"
    code = cli.main(
        ["simulate", ly_file, "--x", json.dumps(x), "--y", json.dumps(y),
         "--horizon", "243", "--window", "4", "--csv", str(csv_path)]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(calls) == 1
    s = parse_substitution(LY_TWO)
    px, py = point_from_literal(s, x), point_from_literal(s, y)
    report_doc = simulate.empirical_class(px, py, 243, 4).to_json()
    assert out == dumps(report_doc)
    rows = "".join(f"{n},{r}\n" for n, r in radius_samples(px, py, 243, 4))
    assert csv_path.read_bytes() == ("n,radius\n" + rows).encode()


def test_tower_command():
    res = run_cli("tower", "--depth", "2", "--horizon", "81", "--json")
    doc = json.loads(res.stdout)
    assert doc["has_distal"] is False
    assert res.stdout == dumps(doc)


def test_determinism_all_fixtures(tmp_path):
    for name, source in FIXTURE_SOURCES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(source)
        first = run_cli("analyze", str(path), "--json")
        second = run_cli("analyze", str(path), "--json")
        assert first.returncode == second.returncode == 0, name
        assert first.stdout.encode() == second.stdout.encode(), name


def test_classify_fixed_point_literals_from_files(morse_file, tmp_path):
    xf = tmp_path / "x.json"
    yf = tmp_path / "y.json"
    xf.write_text(json.dumps({"kind": "fixed_point", "left": "0", "right": "0"}))
    yf.write_text(json.dumps({"kind": "fixed_point", "left": "1", "right": "0"}))
    res = run_cli("classify", morse_file, "--x", f"@{xf}", "--y", f"@{yf}")
    assert res.returncode == 0
    assert json.loads(res.stdout)["class"] == "Asymptotic"


def test_classify_invalid_literal_exit_code(morse_file):
    res = run_cli("classify", morse_file, "--x", "{broken", "--y", "{}")
    assert res.returncode == 1


GOOD_POINT = json.dumps({"kind": "fixed_point", "left": "1", "right": "0"})
# past the interpreter's limit on converting an integer string (4,300 digits)
LONG_INTEGER = "9" * 5000


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(json.dumps({"rules": ["a"]}).encode(), id="rules-list"),
        pytest.param(json.dumps({"rules": {"a": 5}}).encode(), id="image-number"),
        pytest.param(
            json.dumps({"rules": {"a": "ab", "b": "ba"}, "alphabet": "ab"}).encode(),
            id="alphabet-string",
        ),
        pytest.param(b"\xff\xfe0 -> 01\n", id="not-utf8"),
        pytest.param(
            b'{"rules": {"a": "a"}, "x": %s}' % LONG_INTEGER.encode(), id="long-integer"
        ),
        pytest.param(b"a -> ab\n\n# c\nb -> bz\n", id="unknown-letter"),
        pytest.param(b'{"rules": {"a": "ab", "a": "ba", "b": "ba"}}', id="duplicate-key"),
        pytest.param(b'{"rules": {"a": "a", "b": "q"}}', id="json-unknown-letter"),
    ],
)
def test_malformed_substitution_document_is_a_parse_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    res = run_cli("analyze", str(path), "--json")
    assert res.returncode == 1
    assert res.stdout == ""
    assert json.loads(res.stderr)["error"] == "ParseError"


@pytest.mark.parametrize(
    "literal, code, error",
    [
        pytest.param("[1]", 2, "PreconditionError", id="not-an-object"),
        pytest.param(
            json.dumps({"kind": "stream", "period": [["", "0"]], "left_seed": "0"}),
            2,
            "PreconditionError",
            id="triple-of-two",
        ),
        pytest.param(
            json.dumps({"kind": "fixed_point"}), 2, "PreconditionError", id="no-letters"
        ),
        pytest.param("@/nonexistent/point.json", 1, "ParseError", id="unreadable-file"),
        pytest.param('{"kind": ["a"]}', 2, "PreconditionError", id="unhashable-kind"),
        pytest.param(
            '{"kind": "fixed_point", "left": %s}' % LONG_INTEGER,
            1,
            "ParseError",
            id="long-integer",
        ),
    ],
)
def test_malformed_point_literal_is_one_error_line(morse_file, literal, code, error):
    res = run_cli("classify", morse_file, "--x", literal, "--y", GOOD_POINT)
    assert res.returncode == code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def run_main(argv):
    """``cli.main(argv)`` in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(err, error=None):
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert sorted(doc) == ["error", "message"]
    assert error is None or doc["error"] == error


# the UTF-8 byte-order mark
BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize(
    "name, content",
    [
        pytest.param("rules.txt", b"0 -> 01\n1 -> 10\n", id="rules"),
        pytest.param("rules.json", b'{"rules": {"0": "01", "1": "10"}}', id="document"),
        pytest.param(
            "point.json", b'{"kind": "fixed_point", "left": "1", "right": "0"}', id="point"
        ),
    ],
)
def test_a_byte_order_mark_reads_as_without_it(morse_file, tmp_path, name, content):
    runs = []
    for prefix in (b"", BOM):
        path = tmp_path / name
        path.write_bytes(prefix + content)
        if name == "point.json":
            argv = ["classify", morse_file, "--x", f"@{path}", "--y", GOOD_POINT]
        else:
            argv = ["decide", str(path)]
        code, out, err = run_main(argv)
        assert (code, err) == (0, ""), err
        runs.append((code, out))
    assert runs[0] == runs[1]


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff0 -> 01\n", "invalid start byte"),
        (b"0 -> 0\xc3", "unexpected end of data"),
        (BOM + b"\xff0 -> 01\n", "invalid start byte"),
    ],
)
def test_undecodable_file_names_the_decoding_fault(tmp_path, content, reason):
    path = tmp_path / "bad.txt"
    path.write_bytes(content)
    code, out, err = run_main(["decide", str(path)])
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == f"cannot read {path}: not UTF-8 text ({reason})"


USAGE_ERRORS = [
    pytest.param([], id="no-command"),
    pytest.param(["bogus"], id="unknown-command"),
    pytest.param(["language"], id="missing-arguments"),
    pytest.param(["language", "MORSE", "notint"], id="length-not-int"),
    pytest.param(["analyze", "MORSE", "--bogus"], id="unknown-option"),
    pytest.param(["tower", "--depth"], id="option-without-value"),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_is_one_json_line(morse_file, argv):
    code, out, err = run_main([morse_file if a == "MORSE" else a for a in argv])
    assert code == 1
    assert out == ""
    assert_one_error_line(err, "ParseError")


def test_usage_error_exit_code_from_the_command_line():
    res = run_cli("language")
    assert res.returncode == 1
    assert res.stdout == ""
    assert_one_error_line(res.stderr, "ParseError")


@pytest.fixture()
def slow_mixing_file(tmp_path):
    """200 letters, letter i -> (i+1)(i+1) and the last -> 0 1: primitive,
    with an exponent near the Wielandt bound (n-1)^2 + 1."""
    n = 200
    lines = [f"`{i}` -> `{i + 1}` `{i + 1}`" for i in range(n - 1)]
    lines.append(f"`{n - 1}` -> `0` `1`")
    path = tmp_path / "slow.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_slow_mixing_family_answers_within_seconds(slow_mixing_file):
    # each command exits 0-3 with one JSON error line or none, well within
    # a generous wall time; decide runs first and decides primitivity cold
    for argv, expected in (
        (["decide", slow_mixing_file], 0),
        (["reduce", slow_mixing_file], 0),
        (["language", slow_mixing_file, "3"], 0),
        (["analyze", slow_mixing_file, "--json"], 3),
    ):
        start = time.perf_counter()
        code, out, err = run_main(argv)
        assert time.perf_counter() - start < 10, argv
        assert code == expected, (argv, err)
        if expected:
            assert out == ""
            assert_one_error_line(err, "BudgetExceededError")
            assert "exceed the word cap" in json.loads(err)["message"]
        else:
            assert out and err == ""


@pytest.fixture()
def cyclic_file(tmp_path):
    """1,100 letters, letter i -> i, i+1, ..., i+15 (mod n): 19,360,000
    letter-pair positions, past the word budget."""
    path = tmp_path / "cyclic.json"
    path.write_text(cyclic_document(1100, 16))
    return str(path)


def test_pair_layer_over_the_budget_exits_3_within_seconds(cyclic_file):
    # classify reaches the pair layer on two points of one fiber; built,
    # its 19,360,000 positions would hold about 2 GB
    x, y = ({"kind": "fixed_point", "left": f"l{i}", "right": f"l{i + 1}"} for i in (0, 1))
    start = time.perf_counter()
    argv = ["classify", cyclic_file, "--x", json.dumps(x), "--y", json.dumps(y)]
    code, out, err = run_main(argv)
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert_one_error_line(err, "BudgetExceededError")
    assert json.loads(err)["message"] == (
        "19360000 letter-pair positions exceed the word budget 16777216"
    )


def test_brute_scan_past_the_character_codes_exits_3_within_seconds(tmp_path):
    # 1,101 letters of length 2: the pair layer fits the word budget, but
    # the pair substitution of the scan would code 1,212,201 letter pairs
    # as characters; the refusal comes before the finiteness decision,
    # the slow part of a run that is not refused
    path = tmp_path / "wide.json"
    path.write_text(cyclic_document(1101, 2))
    start = time.perf_counter()
    code, out, err = run_main(["analyze", str(path), "--json", "--brute-bound", "4"])
    assert time.perf_counter() - start < 10
    assert (code, out) == (3, "")
    assert_one_error_line(err, "BudgetExceededError")
    assert json.loads(err)["message"] == "1212201 letter pairs exceed the character codes"


def test_help_and_version_still_print_and_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{cli.__version__}\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["language", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: substchaos language")


def test_main_builds_the_parser_once_per_process(morse_file, ly_file, monkeypatch):
    # one build is the top-level parser and its seven subparsers; a change
    # that rebuilt the parser per call would count 8 per call
    x = json.dumps({"kind": "stream", "period": [["", "0", "10"]], "left_seed": "0"})
    y = json.dumps({"kind": "stream", "period": [["", "1", "00"]], "left_seed": "0"})
    argvs = [
        ["analyze", morse_file, "--json"],
        ["reduce", morse_file],
        ["decide", morse_file],
        ["language", morse_file, "4"],
        ["classify", ly_file, "--x", x, "--y", y],
        ["simulate", ly_file, "--x", x, "--y", y, "--horizon", "27", "--window", "2"],
        ["tower", "--depth", "2", "--horizon", "27", "--json"],
    ]
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    codes = [run_main(argvs[i % len(argvs)])[0] for i in range(20)]
    assert codes == [0] * 20
    assert len(built) == 1 + len(argvs)


def test_shared_parser_across_threads(morse_file):
    # parse_args only reads the parser: eight threads parsing distinct argv
    # on the shared one get what freshly built parsers give
    argvs = [
        ["analyze", morse_file, "--json", "--brute-bound", str(n)] for n in range(4)
    ] + [
        ["language", morse_file, str(n)] for n in range(4)
    ] + [
        ["simulate", morse_file, "--x", "{}", "--y", str(n), "--window", str(n + 1)]
        for n in range(4)
    ] + [
        ["tower", "--depth", str(n), "--horizon", str(3 * n)] for n in range(4)
    ]
    jobs = argvs * 25
    expected = [cli.build_parser().parse_args(argv) for argv in jobs]
    parser = cli._parser()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(parser.parse_args, jobs, timeout=60))
            # main's own path: each argv straight to its subcommand's parser
            got_by_main = list(pool.map(cli._parse, jobs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert got_by_main == expected
    assert cli._parser() is parser


# -- one pass of argparse per call -------------------------------------------

POINT = json.dumps({"kind": "fixed_point", "left": "1", "right": "0"})
OTHER_POINT = json.dumps({"kind": "fixed_point", "left": "0", "right": "1"})
VALID_FORMS = [
    pytest.param(["analyze", "MORSE"], id="analyze"),
    pytest.param(["analyze", "MORSE", "--json", "--brute-bound", "3"], id="analyze-options"),
    pytest.param(["analyze", "--brute-bound=2", "--json", "MORSE"], id="analyze-options-first"),
    pytest.param(["analyze", "MORSE", "--brute", "3", "--js"], id="analyze-abbreviations"),
    pytest.param(["reduce", "MORSE"], id="reduce"),
    pytest.param(["decide", "MORSE"], id="decide"),
    pytest.param(["language", "MORSE", "3"], id="language"),
    pytest.param(["classify", "MORSE", "--x", POINT, "--y", OTHER_POINT], id="classify"),
    pytest.param(["classify", "MORSE", f"--y={OTHER_POINT}", f"--x={POINT}"], id="classify-equals"),
    pytest.param(["simulate", "MORSE", "--x", POINT, "--y", OTHER_POINT], id="simulate"),
    pytest.param(
        ["simulate", "MORSE", "--x", POINT, "--y", POINT, "--horizon", "27", "--window", "2"],
        id="simulate-options",
    ),
    pytest.param(
        ["simulate", "MORSE", "--x", POINT, "--y", POINT, "--hor", "9", "--win=1"],
        id="simulate-abbreviations",
    ),
    pytest.param(["tower", "--depth", "2", "--horizon", "9", "--json"], id="tower"),
    pytest.param(["tower", "--dep=2", "--hor=9", "--js"], id="tower-abbreviations"),
    pytest.param(["analyze", "--", "MORSE"], id="separator-before-path"),
]
DISPATCH = [
    *VALID_FORMS,
    *USAGE_ERRORS,
    pytest.param(["analyze", "MORSE", "--version"], id="version-after-command"),
    pytest.param(["--", "analyze", "MORSE"], id="leading-separator"),
    pytest.param(["analyze", "MORSE", "--", "--json"], id="option-after-separator"),
    pytest.param(["analyze", "MORSE", "extra", "more"], id="extra-arguments"),
    pytest.param(["tower", "--h", "3"], id="ambiguous-subcommand-option"),
    # the top-level parser refuses "--=..." as ambiguous between --help and
    # --version; a subcommand's parser would read it otherwise
    pytest.param(["analyze", "MORSE", "--=x"], id="ambiguous-top-level-option"),
    pytest.param(["reduce", "MORSE", "--=x"], id="top-level-ambiguity-or-help-argument"),
    pytest.param(["reduce", "-h", "--=x"], id="top-level-ambiguity-before-help"),
]


def parsed_by_main(argv, monkeypatch):
    """The namespace ``cli.main`` parses from ``argv``, or the message of the
    usage error it prints."""
    parsed = []
    parse = cli._parse

    def recorded(argv):
        parsed.append(parse(argv))
        return parsed[-1]

    monkeypatch.setattr(cli, "_parse", recorded)
    code, out, err = run_main(argv)
    if parsed:
        return parsed[0]
    assert (code, out) == (1, "")
    assert_one_error_line(err, "ParseError")
    return json.loads(err)["message"]


def parsed_by_the_top_level_parser(argv):
    try:
        return cli.build_parser().parse_args(argv)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("argv", DISPATCH)
def test_main_parses_as_the_top_level_parser(morse_file, monkeypatch, argv):
    # main hands a subcommand's argv straight to its parser; it must parse
    # what the top-level parser parses, or refuse it with the same message
    argv = [morse_file if a == "MORSE" else a for a in argv]
    assert parsed_by_main(argv, monkeypatch) == parsed_by_the_top_level_parser(argv)


@pytest.fixture()
def parse_passes(monkeypatch):
    """The ``prog`` of every parser whose ``parse_known_args`` runs, in
    order: ``substchaos`` for the top-level parser, ``substchaos NAME``
    for a subcommand's."""
    passes = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return passes


@pytest.mark.parametrize("argv", VALID_FORMS)
def test_a_command_parses_its_argv_in_one_pass(morse_file, parse_passes, argv):
    argv = [morse_file if a == "MORSE" else a for a in argv]
    code, _, err = run_main(argv)
    assert code == 0, err
    assert parse_passes == [f"substchaos {argv[0]}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["analyze", "CONSTANT"], "analysis requires a constant length of at least 2",
            id="analyze-length-one",
        ),
        pytest.param(
            ["simulate", "MORSE", "--x", POINT, "--y", POINT, "--window", "0"],
            "horizon must be >= 0 and window >= 1",
            id="simulate-window-zero",
        ),
    ],
)
def test_precondition_failure_exits_2(morse_file, tmp_path, argv, message):
    constant = tmp_path / "constant.txt"
    constant.write_text("a -> a\n")
    files = {"MORSE": morse_file, "CONSTANT": str(constant)}
    code, out, err = run_main([files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "PreconditionError", "message": message}


@pytest.mark.parametrize(
    "argv, code, passes",
    [
        (["--version"], 0, ["substchaos"]),
        (["--help"], 0, ["substchaos"]),
        ([], 1, ["substchaos"]),
        (["bogus"], 1, ["substchaos"]),
        (["--", "analyze", "MORSE"], 1, ["substchaos"]),
        (["analyze", "MORSE", "--=x"], 1, ["substchaos"]),
        # a subcommand's own help and usage errors, as before, and what its
        # parser leaves over, refused in the top-level parser's name
        (["language", "--help"], 0, ["substchaos language"]),
        (["language"], 1, ["substchaos language"]),
        (["tower", "--depth"], 1, ["substchaos tower"]),
        (["analyze", "MORSE", "--bogus"], 1, ["substchaos analyze"]),
    ],
)
def test_help_version_and_usage_errors_reach_the_parser_they_did(
    morse_file, parse_passes, capsys, argv, code, passes
):
    argv = [morse_file if a == "MORSE" else a for a in argv]
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, parse_passes) == (code, passes)


# -- the stdout writer -------------------------------------------------------


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


class Tag(str):
    pass


class WriteCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def emitted(value):
    """What ``cli._emit`` prints for ``value``, checked to be one write."""
    out = WriteCounter()
    with redirect_stdout(out):
        cli._emit(value)
    assert out.writes == 1
    return out.getvalue()


SPECIAL = '"\\/\x00\x1f\x7f\u2028\u2029\ud800é€😀ab'
TEXT = st.text(max_size=8) | st.text(SPECIAL, max_size=8)
FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 2.2250738585072014e-308]
)
SCALARS = (
    TEXT
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | FLOATS
    | st.booleans()
    | st.none()
    | st.sampled_from(Level)
    | TEXT.map(Tag)
)
# lists of one exact type take the writer's one-join path
LEAVES = SCALARS | st.lists(TEXT, min_size=1) | st.lists(st.integers(), min_size=1).map(tuple)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(TEXT | TEXT.map(Tag), inner, max_size=5),
    max_leaves=15,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
@example({})
@example([[], {}, ()])
@example({"b": [1, True], "a": [1, Level.HIGH], "": ["x", Tag("y")]})
@example(["é", "\u2028", '"\\'])
@example((-(10**30), 0, 7))
@example([float("nan"), -float("inf"), -0.0, 5e-324])
@example({"z": {"y": {"x": [None, False]}}})
# exact atoms, written in place, beside their subclasses and floats
@example({"a": True, "b": Level.HIGH, "c": Tag("x"), "d": None, "e": 1.5, "f": 0, "g": "y"})
@example([True, 1, Level.LOW, None, "x", Tag("y"), -0.0, False])
@example([False, True, False])
@example([None, None])
def test_writer_matches_the_stdlib(value):
    assert emitted(value) == dumps(value)


def test_writer_refuses_a_key_that_is_not_a_string(capsys):
    # the stdlib would print {"1": "a"}; no document of the package has
    # such a key, and the writer fails before it prints anything
    with pytest.raises(TypeError):
        cli._emit({1: "a"})
    assert capsys.readouterr().out == ""


def _fixed_point_literals(text):
    s = parse_substitution(text)
    literals = []
    for left in s.alphabet:
        for right in s.alphabet:
            doc = {"kind": "fixed_point", "left": left, "right": right}
            try:
                point_from_literal(s, doc)
            except SubstitutionError:
                continue
            literals.append(json.dumps(doc))
    return literals


ORACLE_SOURCES = list(FIXTURE_SOURCES.items()) + [
    (f"countable-{i}", "\n".join(f"{c} -> {w}" for c, w in zip("abc", images)))
    for i, images in enumerate(COUNTABLE_CLASSES)
]


@pytest.mark.parametrize("name, text", ORACLE_SOURCES, ids=[n for n, _ in ORACLE_SOURCES])
def test_every_subcommand_prints_what_the_stdlib_prints(tmp_path, name, text):
    # every JSON document on stdout reads back to itself through json.dumps
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    literals = _fixed_point_literals(text)
    x, y = literals[0], literals[-1]
    argvs = [
        ["analyze", str(path), "--json"],
        ["reduce", str(path)],
        ["decide", str(path)],
        ["language", str(path), "1"],
        ["language", str(path), "9"],
        ["classify", str(path), "--x", x, "--y", y],
        ["simulate", str(path), "--x", x, "--y", y],
    ]
    for argv in argvs:
        code, out, err = run_main(argv)
        assert (code, err) == (0, ""), argv
        assert out == dumps(json.loads(out)), argv


# -- generated command lines -------------------------------------------------

LETTER_SETS = (("a", "b", "c"), ("`x1`", "`y2`", "`z3`"))
NOISE_LINES = ("", "# comment", "not a rule", "a -> ", "q -> a")
# any value json.loads returns, for the fields of documents and literals
JSON_DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def rule_text(draw, letters):
    """A rule file over ``letters``: mostly primitive (the image of each
    letter holds it and the next letter) and of constant length, sometimes
    neither, occasionally with an unknown letter, a noise line or in the
    JSON form."""
    if len(letters) >= 2 and draw(st.integers(0, 7)) == 0:
        return long_rule_text(draw, letters)
    p = draw(st.sampled_from([2, 3, 1]))
    primitive = draw(st.sampled_from([True, True, True, False]))
    variable = draw(st.sampled_from([False, False, False, True]))
    rules = {}
    for i, a in enumerate(letters):
        length = draw(st.integers(1, 3)) if variable else p
        pool = letters + ("`w`",) if draw(st.integers(0, 9)) == 0 else letters
        image = [draw(st.sampled_from(pool)) for _ in range(length)]
        if primitive and length >= 2:
            image[:2] = a, letters[(i + 1) % len(letters)]
            image = draw(st.permutations(image))
        rules[a] = image
    if draw(st.integers(0, 5)) == 0:
        doc = {"rules": {a.strip("`"): [t.strip("`") for t in img] for a, img in rules.items()}}
        if draw(st.integers(0, 2)) == 0:
            doc[draw(st.sampled_from(["rules", "alphabet"]))] = draw(JSON_DATA)
        return json.dumps(doc)
    lines = [f"{a} -> {' '.join(img)}" for a, img in rules.items()]
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(NOISE_LINES)))
    return "\n".join(lines) + "\n"


def long_rule_text(draw, letters):
    """A one-to-one rule file of constant length up to about 1,000
    through the dictionary {``letters[0] letters[1]``, ``letters[-1]``}:
    each image is ``u^i v^m u^j`` with ``u`` the two-letter word, ``v``
    the last letter and ``i + j`` different for each letter, so the
    simplification search places one word per segment along a path."""
    p = draw(st.sampled_from([600, 801, 1000]))
    u, v = [letters[0], letters[1]], [letters[-1]]
    counts = st.lists(
        st.integers(1, (p - 1) // 2), min_size=len(letters), max_size=len(letters), unique=True
    )
    lines = []
    for a, pairs in zip(letters, draw(counts)):
        before = draw(st.integers(0, pairs))
        image = u * before + v * (p - 2 * pairs) + u * (pairs - before)
        lines.append(f"{a} -> {' '.join(image)}")
    return "\n".join(lines) + "\n"


def point_literal(draw, letters):
    """A point literal: mostly a fixed point over ``letters``, sometimes a
    stream with arbitrary triples (one unknown letter among them), a
    literal whose kind, left letter or period is any JSON value, or
    malformed JSON."""
    letters = tuple(a.strip("`") for a in letters)
    kind = draw(st.sampled_from(["fixed", "fixed", "fixed", "stream", "any", "malformed"]))
    if kind == "fixed":
        left, right = (draw(st.sampled_from(letters)) for _ in range(2))
        return json.dumps({"kind": "fixed_point", "left": left, "right": right})
    if kind == "any":
        doc = {
            "kind": draw(st.sampled_from(["fixed_point", "stream"]) | JSON_DATA),
            "left": draw(st.sampled_from(letters) | JSON_DATA),
            "right": draw(st.sampled_from(letters)),
            "period": draw(JSON_DATA),
        }
        return json.dumps(doc)
    letters += ("w",)
    if kind == "stream":
        word = st.lists(st.sampled_from(letters), max_size=3)
        triple = st.tuples(word, word, word).map(list)
        doc = {
            "kind": "stream",
            "preperiod": draw(st.lists(triple, max_size=1)),
            "period": draw(st.lists(triple, min_size=1, max_size=2)),
            "left_seed": draw(st.sampled_from(letters + (None,))),
            "right_seed": draw(st.sampled_from(letters + (None,))),
        }
        return json.dumps(doc)
    return draw(st.sampled_from(["{broken", "[1]", "{}", '{"kind": "fixed_point"}', "@/nonexistent"]))


SMALL_INTS = ("-1", "0", "2", "5", "notint")
# a length, horizon or window the word budget refuses before allocating
HUGE_INT = "100000000"
ARGV_WORDS = (
    "analyze", "reduce", "decide", "language", "classify", "simulate", "tower", "PATH",
    "--json", "--x", "--y", "--depth", "--horizon", "--window", "--brute-bound", "--bogus",
    "-q", "{}", "{broken",
) + SMALL_INTS


@st.composite
def cli_cases(draw):
    """A rule file and one argv, with ``PATH`` standing for the file: a
    well-formed call of a subcommand or a random list of argv words."""
    letters = draw(st.sampled_from(LETTER_SETS))[: draw(st.sampled_from([1, 2, 2, 3, 3]))]
    text = rule_text(draw, letters)
    command = draw(st.sampled_from(["analyze", "reduce", "decide", "language", "classify",
                                    "simulate", "tower", "malformed"]))
    if command == "analyze":
        extra = draw(st.sampled_from([
            [], ["--json"], ["--json", "--brute-bound", "9"], ["--brute-bound", "33554432"],
        ]))
        return text, ["analyze", "PATH", *extra]
    if command in ("reduce", "decide"):
        return text, [command, "PATH"]
    if command == "language":
        length = draw(st.sampled_from(("1", "3", "8") + SMALL_INTS + (HUGE_INT,)))
        return text, ["language", "PATH", length]
    if command in ("classify", "simulate"):
        x, y = point_literal(draw, letters), point_literal(draw, letters)
        argv = [command, "PATH", "--x", x, "--y", y]
        if command == "simulate":
            horizon = draw(st.sampled_from(["0", "9", "40", "-1", "9000000", HUGE_INT]))
            argv += ["--horizon", horizon]
            argv += ["--window", draw(st.sampled_from(["1", "3", "0", HUGE_INT]))]
        return text, argv
    if command == "tower":
        return text, [
            "tower", "--depth", draw(st.sampled_from(["0", "2", "3"])),
            "--horizon", draw(st.sampled_from(["0", "27", "81"])),
            *draw(st.sampled_from([[], ["--json"]])),
        ]
    return text, draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=5))


@pytest.fixture(scope="module")
def rule_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("rules")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cli_cases())
@example(case=(MORSE, ["classify", "PATH", "--x", '{"kind": ["a"]}', "--y", GOOD_POINT]))
@example(case=(MORSE, ["simulate", "PATH", "--x", GOOD_POINT, "--y", '{"kind": {"a": []}}']))
@example(case=(MORSE, ["classify", "PATH", "--x", '{"kind": %s}' % LONG_INTEGER, "--y", "{}"]))
@example(case=('{"rules": {"a": "a"}, "x": %s}' % LONG_INTEGER, ["decide", "PATH"]))
def test_main_keeps_the_contract_on_generated_input(rule_dir, case):
    # many calls in one process share the parser and the caches: each keeps
    # the exit-code and JSON-error contract, prints what the stdlib prints
    # and repeats byte for byte
    text, argv = case
    path = rule_dir / f"{hashlib.sha256(text.encode()).hexdigest()[:16]}.txt"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == "PATH" else a for a in argv]
    first = run_main(argv)
    code, out, err = first
    assert code in {0, 1, 2, 3}
    if code:
        assert out == ""
        assert_one_error_line(err)
    else:
        assert err == ""
        if argv[:1] == ["analyze"] and "--json" in argv:
            jsonschema.validate(json.loads(out), REPORT_SCHEMA)
        if argv[0] not in ("analyze", "tower") or "--json" in argv:
            assert out == dumps(json.loads(out))
    assert run_main(argv) == first
