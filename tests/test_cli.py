"""Command-line surface: subcommands, exit codes, JSON shape,
determinism."""

import json
import subprocess
import sys

import jsonschema
import pytest

from substchaos import REPORT_SCHEMA, cli, parse_substitution, point_from_literal, report, simulate

from conftest import FIXTURE_SOURCES, LY_TWO, MORSE, radius_samples


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "substchaos.cli", *args],
        capture_output=True,
        text=True,
    )


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


def test_nonprimitive_exit_code(tmp_path):
    path = tmp_path / "np.txt"
    path.write_text("0 -> 00\n1 -> 11\n")
    res = run_cli("analyze", str(path))
    assert res.returncode == 2


def test_budget_exit_code(morse_file, tmp_path):
    x = json.dumps({"kind": "fixed_point", "left": "1", "right": "0"})
    res = run_cli(
        "simulate", morse_file, "--x", x, "--y", x, "--horizon", "100000", "--max-word", "1000"
    )
    assert res.returncode == 3
    assert json.loads(res.stderr)["error"] == "BudgetExceededError"


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


def test_language_command(morse_file):
    doc = json.loads(run_cli("language", morse_file, "3").stdout)
    assert doc["words"] == ["001", "010", "011", "100", "101", "110"]


def test_classify_command(ly_file):
    x = json.dumps({"kind": "stream", "period": [["", "0", "10"]], "left_seed": "0"})
    y = json.dumps({"kind": "stream", "period": [["", "1", "00"]], "left_seed": "0"})
    res = run_cli("classify", ly_file, "--x", x, "--y", y)
    doc = json.loads(res.stdout)
    assert doc["class"] == "LiYorke"
    assert doc["rule"] == "overall-coincidence-recurrent-difference"


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
    assert out == json.dumps(report_doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    rows = "".join(f"{n},{r}\n" for n, r in radius_samples(px, py, 243, 4))
    assert csv_path.read_bytes() == ("n,radius\n" + rows).encode()


def test_tower_command():
    res = run_cli("tower", "--depth", "2", "--horizon", "81", "--json")
    doc = json.loads(res.stdout)
    assert doc["has_distal"] is False


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


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(json.dumps({"rules": ["a"]}).encode(), id="rules-list"),
        pytest.param(json.dumps({"rules": {"a": 5}}).encode(), id="image-number"),
        pytest.param(b"\xff\xfe0 -> 01\n", id="not-utf8"),
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
    ],
)
def test_malformed_point_literal_is_one_error_line(morse_file, literal, code, error):
    res = run_cli("classify", morse_file, "--x", literal, "--y", GOOD_POINT)
    assert res.returncode == code
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
