import argparse
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from intervalagreement import attributes, build_iaa, cli, collection, gamma_alpha, gamma_exact
from intervalagreement import survey as survey_mod
from intervalagreement.agreement import DEFAULT_CUTS, GammaBreakdown
from intervalagreement.cli import (
    _print_breakdown,
    build_parser,
    main,
    parse_interval_lines,
)
from intervalagreement.errors import AgreementError, InvalidInterval, ParseError
from intervalagreement.fuzzyset import DEFAULT_SAMPLES
from intervalagreement.survey import report

from helpers import finite_intervals, lattice_intervals, oracle_print_breakdown, parse_each_line

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
    # float() would read 1_0 as 10
    with pytest.raises(ParseError, match="line 2: endpoints must be numbers"):
        parse_interval_lines("0,1\n1_0,2_0\n")
    assert parse_interval_lines("# per_line comment\n0,1\n").endpoints()[1].tolist() == [1.0]


def test_line_without_comma_is_not_paired_across_lines():
    # one field on line 1 and three on line 2 still split into four fields
    with pytest.raises(ParseError, match="expected 'l,r'") as info:
        parse_interval_lines("1\n2,3,4\n")
    assert info.value.line == 1


@pytest.mark.parametrize("line", ["\u0661,\u0662", "\uff11,\uff12", "1,\u0662", "\u0967.5,3"])
def test_non_ascii_digits_rejected(line):
    # float() reads Arabic-Indic, full-width and Devanagari digits as 1, 2, ...
    with pytest.raises(ParseError, match="line 2: endpoints must be numbers") as info:
        parse_interval_lines(f"0,1\n{line}\n")
    assert info.value.line == 2
    # non-ASCII elsewhere is fine: a comment, or whitespace around an endpoint
    coll = parse_interval_lines("# \u0661 \u00fcber\n0,\u2003 1\n")
    assert coll.endpoints()[1].tolist() == [1.0]


def test_non_ascii_comment_keeps_the_column_path(monkeypatch):
    def per_line(*args):
        raise AssertionError("a line was read on its own")

    monkeypatch.setattr(survey_mod, "read_interval", per_line)  # the one-row reader's lookup
    coll = parse_interval_lines("# Sch\u00e4tzungen\n0,1\n2,3  # \u0661 \u00fcber\n")
    assert coll.endpoints()[0].tolist() == [0.0, 2.0]


def test_gamma_rejects_non_ascii_digits(tmp_path, capsys):
    path = tmp_path / "iv.txt"
    path.write_text("0,4\n\u0661,\u0662\n", encoding="utf-8")
    assert main(["gamma", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: endpoints must be numbers" in captured.err


LINE_PIECES = [
    "1,2", " 3 , 7 ", "2.5,2.5", "5,1", "0,inf", "nan,1", "-1e308,1e308", "1_0,2_0",
    "a,1", "1;2", "1,2,3", ",", "", "   ", "# note", "2,4 # inline", "\t0 ,\u2003 9",
    "\u0661,\u0662", "# \u00fcber", "1,\uff12", "\x0c", "\u2028", "\x85",
    # numpy's C line reader reads a plain block first; float and strip decide these
    "\x1f1,2", "+1,2", ".5,5.", "1e5,1E6", "1e400,1", "-0.0,0", "5e-324,1", "0x10,1", "1e,2",
    "1.2.3,4", "1\x002,3", "1,2,", "1,,2", "1", "#", "-inf,0",
]


@given(st.lists(st.sampled_from(LINE_PIECES), max_size=8))
def test_parse_interval_lines_matches_per_line_parser(lines):
    _assert_parses_as_per_line_parser("\n".join(lines))


@pytest.mark.parametrize("rows", [1, 3])
@given(lines=st.lists(st.sampled_from(LINE_PIECES), max_size=8))
def test_parse_interval_lines_matches_per_line_parser_in_small_blocks(rows, lines):
    with patch.object(survey_mod, "TEXT_LINES", rows):
        _assert_parses_as_per_line_parser("\n".join(lines))


def _assert_parses_as_per_line_parser(text):
    try:
        got = parse_interval_lines(text)
    except AgreementError as exc:
        got = (type(exc), str(exc), exc.line)
    try:
        want = parse_each_line(text)
    except AgreementError as exc:
        assert got == (type(exc), str(exc), exc.line)
        return
    if not want:
        assert got == (ParseError, "no intervals in input", None)
        return
    assert got.intervals == tuple(want)
    ls, rs = got.endpoints()
    assert ls.tobytes() == np.array([iv.l for iv in want]).tobytes()  # to the bit: -0.0 too
    assert rs.tobytes() == np.array([iv.r for iv in want]).tobytes()


PADDING = st.text(" \t\x1f", max_size=2)  # what str.strip cuts and does not end a line


@st.composite
def float_texts(draw):
    """Number text builtin ``float`` reads: a sign, up to 40 mantissa digits
    with or without a point (".5", "5."), an exponent out to +-340 (overflow to
    inf, subnormals), or a spelled-out inf or nan; padded with whitespace."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    word = draw(st.sampled_from(["inf", "Infinity", "nan", "-INF", None, None, None, None]))
    if word is not None:
        return draw(PADDING) + word + draw(PADDING)
    digits = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(-1, len(digits)))  # -1: no point
    mantissa = digits if point < 0 else digits[:point] + "." + digits[point:]
    exponent = ""
    if draw(st.booleans()):
        e = draw(st.integers(-340, 340))
        plus = draw(st.sampled_from(["", "+"])) if e >= 0 else ""
        exponent = draw(st.sampled_from("eE")) + plus + str(e)
    return draw(PADDING) + sign + mantissa + exponent + draw(PADDING)


@st.composite
def float_lines(draw):
    """Lines of two numbers, each pair mostly in order, with some comments and blanks."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["swapped", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(PADDING) + "# note")
        elif kind == "blank":
            lines.append("")
        else:
            l, r = draw(float_texts()), draw(float_texts())
            if (float(l.strip()) > float(r.strip())) == (kind == "pair"):
                l, r = r, l
            lines.append(l + "," + r + draw(st.sampled_from(["", " # inline"])))
    return "\n".join(lines)


@pytest.mark.parametrize("rows", [None, 1, 3])
@given(text=float_lines())
@example(text="1" + "0" * 39 + "e-340,1e-300\n5e-324,2.4703282292062328e-324")
@example(text="-0.0,0\n.5,5.\n\x1f1,2\x1f\n1e400,1e401")
def test_parse_interval_lines_reads_random_float_text_as_float_does(rows, text):
    with patch.object(survey_mod, "TEXT_LINES", rows or survey_mod.TEXT_LINES):
        _assert_parses_as_per_line_parser(text)


@pytest.mark.parametrize("sep", ["\x0c", "\u2028", "\x85", "\x1c", "\r", "\r\n"])
def test_every_splitlines_break_ends_a_line(sep):
    coll = parse_interval_lines(f"0,1{sep}2,3")
    assert coll.endpoints()[0].tolist() == [0.0, 2.0]
    with pytest.raises(ParseError, match="expected 'l,r'") as info:
        parse_interval_lines(f"0,1{sep}2,3{sep}4")
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text",
    [
        "0,1\n1,2\n# only\n\n   \n# comments\n5,6\n",  # a block of comments and blanks
        "0,1\n1,2\n2,3\n3,4\n4,5\n6;7\n",  # a bad line only in the last block
        "0,1\n1,2\n2,3 # inline\n3,4\n4,5\n5,4\n",  # a reversed line after a comment
        "0,1\r\n1,2\r\n2,3\r\n3,4\r\n",  # CRLF at every block edge
        "\ufeff0,1\n1,2\n",  # a BOM left in the text is read as the per-line parser reads it
        "0,1\n1,2\n2,3\n0,\u2003 9\n",  # non-plain text only in a later block, valid
        "0,1\n1,2\n2,3\n\u0661,\u0662\n",  # non-plain text only in a later block, invalid
        "# nothing\n\n# at all\n  # here\n",  # all comments: "no intervals in input"
        "\x1f1,2\n0,3\n2,\u2003 4\n",  # padding float keeps, strip cuts, in a split block
    ],
    ids=["comment-block", "bad-later-block", "reversed-after-comment", "crlf", "bom",
         "non-plain-valid", "non-plain-invalid", "all-comments", "unit-separator-split"],
)
@pytest.mark.parametrize("rows", [1, 2, 3])
def test_parse_interval_lines_across_block_edges(rows, text):
    with patch.object(survey_mod, "TEXT_LINES", rows):
        _assert_parses_as_per_line_parser(text)


def test_plain_blocks_are_read_without_the_block_split(monkeypatch):
    split = patch.object(survey_mod, "_split_block", wraps=survey_mod._split_block)
    monkeypatch.setattr(survey_mod, "TEXT_LINES", 3)
    with split as spy:
        coll = parse_interval_lines("0,1\n1,2  # inline\n\n2,3\n3,4\n4,5\n")
        assert spy.call_count == 0  # both blocks went to the C line reader
        text = "0,1\n1,2\n2,3\n3,4\n4;5\n5,6\n"  # one bad line in the second block
        with pytest.raises(ParseError) as info:
            parse_interval_lines(text)
        assert spy.call_count == 1  # only that block fell back
    assert coll.endpoints()[0].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ParseError) as want:
        parse_each_line(text)
    assert (str(info.value), info.value.line) == (str(want.value), want.value.line) == (
        "line 5: expected 'l,r', got '4;5'", 5)


def test_a_block_of_comments_and_blanks_warns_nothing():
    lines = [f"{k},{k + 1}" for k in range(survey_mod.TEXT_LINES)]
    text = "\n".join(lines + ["# comment", ""] * (survey_mod.TEXT_LINES // 2) + lines) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" is not let out
        assert parse_interval_lines(text).n == 2 * survey_mod.TEXT_LINES
    proc = run_cli("gamma", "--input", "-", stdin=text)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run_cli("gamma", "--input", "-", stdin="\n".join(lines + lines)).stdout


def test_gamma_reads_a_bom_and_crlf_file(tmp_path, capsys):
    path = tmp_path / "iv.txt"
    path.write_bytes(b"\xef\xbb\xbf" + FIG_NONCONVEX_TEXT.replace("\n", "\r\n").encode())
    assert main(["gamma", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0.333333"


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


def nested_then_apart(n):
    """n intervals: nested ones, whose level lengths run from 2000 down to
    about 1000, then 100 apart from them and from each other, which leave a
    tail of zero-length levels."""
    nested = [(k / 16, 2000 - k / 7) for k in range(n - 100)]
    return nested + [(2000 + k, 2000.5 + k) for k in range(100)]


@given(
    st.one_of(
        finite_intervals(2, 30),
        lattice_intervals(2, 30),
        # one interval repeated: every level is non-zero, so there is no zero tail
        st.tuples(lattice_intervals(1, 1), st.integers(2, 30)).map(lambda t: t[0] * t[1]),
    ),
    st.integers(2, 12),
)
@example([(2, 4), (2.5, 3.5)], 2)
@example([(2, 5)] * 6, 3)
@example([(0, 1), (2, 3), (4, 5), (6, 7)], 4)  # every level past the first is zero
# n intervals print n - 1 level lines: one block less one, one block, one block and one
@example(nested_then_apart(cli.TEXT_LINES), 12)
@example(nested_then_apart(cli.TEXT_LINES + 1), 12)
@example(nested_then_apart(cli.TEXT_LINES + 2), 12)
def test_print_breakdown_matches_per_line_printer(pairs, cuts):
    coll = collection(pairs)
    try:
        breakdowns = [gamma_exact(coll), gamma_alpha(build_iaa(coll), cuts=cuts)]
    except AgreementError:  # every interval has zero width
        assume(False)
    for breakdown in breakdowns:
        got, want = io.StringIO(), io.StringIO()
        _print_breakdown(breakdown, got)
        oracle_print_breakdown(breakdown, want)
        assert got.getvalue() == want.getvalue()


def fixed_texts(values):
    """The digit path's text of each value, and whether it decided it."""
    k, decided = cli._millionths(np.array(values, dtype=float))
    rows = cli._fixed(k)
    line = np.ascontiguousarray(rows.T).tobytes()
    width = len(rows)
    texts = [line[i * width : (i + 1) * width].replace(b"\0", b"").decode() for i in range(len(values))]
    return texts, decided.tolist()


@given(st.lists(st.floats(min_value=0.0), min_size=1, max_size=20))
@example([2.5e-06])  # 2.5 millionths exactly, but the double is above: 0.000003, not rint's 0.000002
@example([3.5e-06])  # the double is below 3.5 millionths: 0.000003, not rint's 0.000004
@example([9.9999995])  # 9.999999, not 10.000000
@example([0.0078125])  # an exact half: 0.007812, ties to even
@example([5e-324])
@example([0.0])
@example([-0.0])
@example([1e16])
@example([1e300])
def test_digit_path_equals_percent_format(values):
    texts, decided = fixed_texts(values)
    for value, text, ok in zip(values, texts, decided):
        if ok:
            assert text == "%.6f" % value
        scaled = value * 1e6
        if math.copysign(1.0, value) > 0 and value < 1e9 and abs(scaled - round(scaled)) < 0.25:
            assert ok


@given(
    st.lists(st.tuples(st.floats(), st.floats(), st.floats()), min_size=1, max_size=40),
    st.floats(),
)
@example([(2.5e-06, 0.5, 9.9999995), (0.0078125, 3.5e-06, 0.25)], 1.0)  # halves alone
@example([(1e16, 1e300, -0.0), (0.5, 0.25, 0.125)], 2.0)
@example([(float("nan"), float("inf"), -1.0), (5e-324, 0.0, -float("inf"))], -0.0)
def test_print_breakdown_formats_undecided_values_by_percent(rows, last_length):
    weights, lengths, ratios = (np.array(col) for col in zip(*rows))
    breakdown = GammaBreakdown(0.5, np.append(lengths, last_length), weights, ratios, 1.0)
    got, want = io.StringIO(), io.StringIO()
    _print_breakdown(breakdown, got)
    oracle_print_breakdown(breakdown, want)
    assert got.getvalue() == want.getvalue()


def test_gamma_alpha_mode_names_the_empty_lowest_cut():
    """[3, 7] has width 4: the fault is the empty lowest cut, alpha = 1/2, and
    the exact mode reads 0."""
    proc = run_cli("gamma", "--mode", "alpha", "--alpha-cuts", "2", stdin="2,2\n5,5\n3,7\n")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: the lowest alpha-cut (alpha = 1/2) has zero length; no lengths to compare\n"
    )
    proc = run_cli("gamma", stdin="2,2\n5,5\n3,7\n")
    assert (proc.returncode, proc.stdout.splitlines()[0]) == (0, "0.000000")


def test_parser_defaults_are_the_library_defaults():
    (subparsers,) = [a.choices for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    defaults = {flag: DEFAULT_SAMPLES if flag == "--samples" else DEFAULT_CUTS
                for flag in ("--samples", "--alpha-cuts")}
    for name, p in subparsers.items():
        for action in p._actions:
            for flag in set(action.option_strings) & defaults.keys():
                assert action.default == defaults[flag], (name, flag)
    assert (DEFAULT_SAMPLES, DEFAULT_CUTS) == (1001, 10)  # printed outputs depend on both
    signature = inspect.signature
    assert signature(gamma_alpha).parameters["cuts"].default == DEFAULT_CUTS
    assert signature(report).parameters["alpha_cuts"].default == DEFAULT_CUTS
    assert signature(report).parameters["samples"].default == DEFAULT_SAMPLES
    assert signature(attributes).parameters["samples"].default == DEFAULT_SAMPLES


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


class _Writes(io.StringIO):
    """A stdout stand-in that keeps each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["build", "--input", "{intervals}", "--samples", "7"],
    ["series", "--input", str(FIXTURE), "--group", "Patient", "--term", "ITD", "--samples", "7"],
])
def test_build_and_series_write_a_block_at_a_time(monkeypatch, capsys, intervals_file, fmt, argv):
    argv = [arg.format(intervals=intervals_file) for arg in argv] + ["--format", fmt]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(survey_mod, "TEXT_LINES", 3)
    monkeypatch.setattr(sys, "stdout", _Writes())
    assert main(argv) == 0
    assert "".join(sys.stdout.writes) == want
    assert len(sys.stdout.writes) == 1 + 3 + (fmt == "json")  # the head, 3 + 3 + 1 points, the tail


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


def test_invalid_utf8_input_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0,1\n\xff\xfe1,2\n")
    assert main(["gamma", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 2: input is not valid UTF-8: invalid start byte at byte 4\n"


def test_invalid_utf8_on_stdin_reads_as_from_a_file(tmp_path):
    data = b"0,1\n\xff\xfe1,2\n"
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict"}
    runs = [
        subprocess.run([sys.executable, "-m", "intervalagreement", "gamma", *args],
                       input=data, capture_output=True, env=env)
        for args in (["--input", str(path)], ["--input", "-"])
    ]
    want = b"error: line 2: input is not valid UTF-8: invalid start byte at byte 4\n"
    for proc in runs:
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, b"", want)


@pytest.mark.parametrize("argv", [
    ["gamma"], ["gamma", "--mode", "alpha"], ["attrs"], ["build", "--samples", "5"],
])
def test_bom_and_crlf_interval_list_reads_as_the_plain_list(tmp_path, monkeypatch, capsys, argv):
    plain_path, bom_path = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain_path.write_text(FIG_NONCONVEX_TEXT)
    data = b"\xef\xbb\xbf" + FIG_NONCONVEX_TEXT.replace("\n", "\r\n").encode()
    bom_path.write_bytes(data)
    want = _call_main([*argv, "--input", str(plain_path)], capsys)
    assert want[0] == 0
    assert _call_main([*argv, "--input", str(bom_path)], capsys) == want
    # stdin with a byte buffer, as a real one has, reads as a file does
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert _call_main([*argv, "--input", "-"], capsys) == want


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_input_file_newlines_read_as_text(tmp_path, capsys, newline):
    path = tmp_path / "survey.csv"
    path.write_bytes(FIXTURE.read_bytes().replace(b"\n", newline.encode()))
    assert main(["report", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (DATA / "report_golden.csv").read_text()


# ------------------------------------------------------------------ exit codes

def test_usage_errors_exit_2():
    for args in (
        ["gamma", "--alpha-cuts", "1"],
        ["attrs", "--samples", "1"],
        ["build", "--samples", "10000002"],
        ["gamma", "--alpha-cuts", "10001"],
        ["gamma", "--samples", "5"],  # gamma reads no samples
        ["report", "--mode", "alpha", "--samples", "99999999999"],
        ["build", "--scale", "5", "5"],
        ["report", "--scale", "5", "5"],
        ["bogus"],
    ):
        proc = run_cli(*args)
        assert proc.returncode == 2, proc.stderr


FLAGS = {
    "gamma": ["--input", "--mode", "--alpha-cuts"],
    "build": ["--input", "--samples", "--scale", "--format"],
    "attrs": ["--input", "--samples"],
    "report": ["--input", "--mode", "--alpha-cuts", "--samples", "--scale", "--format",
               "--input-format"],
    "series": ["--input", "--samples", "--scale", "--format", "--input-format", "--group",
               "--term"],
}
# a valid value for every flag any subcommand takes
FLAG_VALUES = {
    "--input": ["-"], "--mode": ["alpha"], "--alpha-cuts": ["3"], "--samples": ["5"],
    "--scale": ["0", "10"], "--format": ["json"], "--input-format": ["json"],
    "--group": ["ALL"], "--term": ["ED"],
}


def test_each_subcommand_takes_only_its_flags():
    actions = build_parser()._actions
    (subparsers,) = [a.choices for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers) == list(FLAGS)
    for name, p in subparsers.items():
        options = [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
        assert options == FLAGS[name], name


@pytest.mark.parametrize("command", list(FLAGS))
def test_flags_a_subcommand_does_not_read_exit_2(command, capsys):
    required = [a for flag in ("--group", "--term") if flag in FLAGS[command]
                for a in (flag, *FLAG_VALUES[flag])]
    for flag in FLAG_VALUES.keys() - FLAGS[command]:
        with pytest.raises(SystemExit) as info:
            main([command, *required, flag, *FLAG_VALUES[flag]])
        assert info.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["report", "--scale", "\u0660", "\u0661\u0660"],  # float() reads Arabic-Indic digits
    ["build", "--scale", "0", "1_0"],
    ["gamma", "--alpha-cuts", "\u0661\u0660"],
    ["build", "--samples", "1_001"],
    ["attrs", "--samples", "\uff15"],
    ["report", "--scale", "nan", "10"],
    ["build", "--scale", "0", "inf"],
    ["series", "--scale", "inf", "inf", "--group", "ALL", "--term", "ED"],
    ["report", "--scale", "-1" + "0" * 308, "1e308"],  # the width overflows a float
])
def test_flag_values_that_are_not_plain_or_finite_exit_2(args, capsys):
    with pytest.raises(SystemExit) as info:
        main([*args, "--input", str(FIXTURE)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err


def test_scale_reads_any_negative_number(capsys):
    # argparse 3.11 alone takes -1e3 for an option string: "expected 2 arguments"
    assert main(["report", "--input", str(FIXTURE), "--scale", "-1e3", "10"]) == 0
    exponent = capsys.readouterr()
    assert main(["report", "--input", str(FIXTURE), "--scale", "-1000", "10"]) == 0
    assert exponent == capsys.readouterr()


@pytest.mark.parametrize("low, message", [
    ("-inf", "--scale needs finite LO < HI"),
    ("-x", "argument --scale: expected 2 arguments"),
], ids=["minus-inf", "minus-letter"])
def test_scale_negative_looking_values_exit_2(low, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["report", "--input", str(FIXTURE), "--scale", low, "10"])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def _call_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_answers_as_a_fresh_one(intervals_file, capsys):
    calls = [
        ["gamma", "--input", intervals_file],
        ["report", "--input", str(FIXTURE), "--format", "json"],
        ["gamma", "--alpha-cuts", "1", "--input", intervals_file],
        ["attrs", "--input", intervals_file],
        ["report", "--help"],
        ["gamma", "--input", intervals_file, "--mode", "alpha"],
        ["series", "--input", str(FIXTURE), "--group", "ALL"],  # no --term
        ["build", "--input", intervals_file, "--scale", "-1e3", "10", "--samples", "5"],
        ["--help"],
    ]
    assert build_parser() is build_parser()
    warm = [_call_main(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_call_main(argv, capsys))
    assert warm == fresh
    assert [code for code, _, _ in warm] == [0, 0, 2, 0, 0, 0, 2, 0, 0]


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
