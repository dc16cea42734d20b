import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalagreement.cli import _parse_each_line, main, parse_interval_lines
from intervalagreement.errors import AgreementError, InvalidInterval, ParseError

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "survey_fixture.csv"

FIG_NONCONVEX_TEXT = "2,5\n3,5\n6,8\n3,7\n"


def run_cli(*args, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "intervalagreement", *args],
        input=stdin, capture_output=True, text=True,
    )


@pytest.fixture
def intervals_file(tmp_path):
    path = tmp_path / "intervals.txt"
    path.write_text(FIG_NONCONVEX_TEXT)
    return str(path)


# --------------------------------------------------------------- interval list

def test_parse_interval_lines_comments_and_blanks():
    coll = parse_interval_lines("# header\n2,5\n\n 3 , 7  # inline\n")
    assert [(iv.l, iv.r) for iv in coll] == [(2.0, 5.0), (3.0, 7.0)]


def test_parse_interval_lines_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_interval_lines("1,2\n1;2\n")
    with pytest.raises(InvalidInterval, match="line 1") as info:
        parse_interval_lines("5,1\n")
    assert info.value.line == 1
    with pytest.raises(InvalidInterval, match="line 3") as info:
        parse_interval_lines("# reversed below\n\n5,1\n")
    assert info.value.line == 3
    assert str(info.value) == "line 3: left endpoint exceeds right: [5.0, 1.0]"
    with pytest.raises(InvalidInterval, match="line 2: width") as info:
        parse_interval_lines("0,1\n-1e308,1e308\n")
    assert info.value.line == 2
    with pytest.raises(ParseError, match="no intervals"):
        parse_interval_lines("# nothing\n")


LINE_PIECES = [
    "1,2", " 3 , 7 ", "2.5,2.5", "5,1", "0,inf", "nan,1", "-1e308,1e308", "1_0,2_0",
    "a,1", "1;2", "1,2,3", ",", "", "   ", "# note", "2,4 # inline", "\t0 ,\u2003 9",
]


@given(st.lists(st.sampled_from(LINE_PIECES), max_size=8))
def test_parse_interval_lines_matches_per_line_parser(lines):
    text = "\n".join(lines)
    try:
        got = parse_interval_lines(text)
    except AgreementError as exc:
        got = (type(exc), str(exc), exc.line)
    try:
        want = _parse_each_line(text)
    except AgreementError as exc:
        assert got == (type(exc), str(exc), exc.line)
        return
    if not want:
        assert got == (ParseError, "no intervals in input", None)
        return
    assert got.intervals == tuple(want)
    ls, rs = got.endpoints()
    assert np.array_equal(ls, [iv.l for iv in want])
    assert np.array_equal(rs, [iv.r for iv in want])


# ----------------------------------------------------------------------- gamma

def test_gamma_from_file(intervals_file, capsys):
    assert main(["gamma", "--input", intervals_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.333333"
    assert out[1] == "level 2: weight=0.500000 length=3.000000 prev=6.000000 ratio=0.500000"
    assert len(out) == 4


def test_gamma_overlap_pair(tmp_path, capsys):
    path = tmp_path / "iv.txt"
    path.write_text("2,4\n2.5,3.5\n")
    assert main(["gamma", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.500000"


def test_gamma_single_interval_is_data_error(tmp_path, capsys):
    path = tmp_path / "iv.txt"
    path.write_text("2,4\n")
    assert main(["gamma", "--input", str(path)]) == 1
    assert "at least 2" in capsys.readouterr().err


def test_gamma_alpha_mode(intervals_file, capsys):
    assert main(["gamma", "--input", intervals_file, "--mode", "alpha", "--alpha-cuts", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.333333"


# ------------------------------------------------------------- build and attrs

def test_build_series_over_hull(intervals_file, capsys):
    assert main(["build", "--input", intervals_file, "--samples", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,mu"
    assert lines[1] == "2,0.25"
    assert lines[-1] == "8,0.25"


def test_build_respects_scale_flag(intervals_file, capsys):
    assert main(["build", "--input", intervals_file, "--samples", "5",
                 "--scale", "0", "10", "--format", "json"]) == 0
    pairs = json.loads(capsys.readouterr().out)
    assert pairs[0] == [0.0, 0.0]
    assert pairs[2] == [5.0, 0.75]


def test_attrs_output(tmp_path, capsys):
    path = tmp_path / "iv.txt"
    path.write_text("2,4\n2.5,3.5\n")
    assert main(["attrs", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        "height = 1\ncentroid = 3\nsupport = 2\ncore = 1\nn = 2\n"
    )


# ----------------------------------------------------------- report and series

def test_report_matches_golden(capsys):
    assert main(["report", "--input", str(FIXTURE)]) == 0
    assert capsys.readouterr().out == (DATA / "report_golden.csv").read_text()


def test_report_json(capsys):
    assert main(["report", "--input", str(FIXTURE), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["group"] == "Patient"
    assert payload[0]["n"] == 2


def test_series_subcommand(capsys):
    assert main(["series", "--input", str(FIXTURE), "--group", "Patient",
                 "--term", "ITD", "--samples", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,mu"
    assert lines[4] == "3,1"


def test_series_unknown_group(capsys):
    assert main(["series", "--input", str(FIXTURE), "--group", "Nurse", "--term", "ITD"]) == 1
    assert "Nurse" in capsys.readouterr().err


def test_missing_file_is_data_error(capsys):
    assert main(["gamma", "--input", "/nonexistent/file.txt"]) == 1


# ------------------------------------------------------------------ exit codes

def test_usage_errors_exit_2():
    for args in (
        ["gamma", "--alpha-cuts", "1"],
        ["gamma", "--samples", "1"],
        ["gamma", "--samples", "10000002"],
        ["gamma", "--alpha-cuts", "10001"],
        ["report", "--mode", "alpha", "--samples", "99999999999"],
        ["gamma", "--scale", "5", "5"],
        ["bogus"],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr


def test_help_exits_zero_everywhere():
    for cmd in ([], ["gamma"], ["build"], ["attrs"], ["report"], ["series"]):
        proc = run_cli(*cmd, "--help")
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()


def test_stdin_dash_input():
    proc = run_cli("gamma", "--input", "-", stdin="2,4\n2.5,3.5\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0.500000"


def test_subcommand_output_is_deterministic():
    fixture = str(FIXTURE)
    invocations = [
        ("gamma", "--input", "-"),
        ("build", "--input", "-", "--samples", "101"),
        ("attrs", "--input", "-"),
        ("report", "--input", fixture),
        ("series", "--input", fixture, "--group", "ALL", "--term", "ED", "--samples", "101"),
    ]
    for args in invocations:
        first = run_cli(*args, stdin=FIG_NONCONVEX_TEXT)
        second = run_cli(*args, stdin=FIG_NONCONVEX_TEXT)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stderr == second.stderr
