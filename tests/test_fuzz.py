"""Every small input either parses or raises an AgreementError.

Arbitrary bytes and text go through the survey loader (CSV and JSON, as
text, bytes and a file), the interval-list parser and the CLI reading a
file and, with the same answer, stdin. The only outcomes allowed are a
result (exit 0), an AgreementError (exit 1) or a usage error (exit 2);
anything else is a traceback. A result prints no infinite or NaN number, and
no run warns. The interval-list parser gives the same outcome at any block size.
"""

import contextlib
import io
import re
import sys
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from intervalagreement import AgreementError, load_survey, survey
from intervalagreement.cli import main, parse_interval_lines

# pieces that steer random text into the parsers' deeper branches
PIECES = [
    "group,participant_id,term,l,r\n", "Patient,P1,ITD,", "Surgeon,P2,MD,", "PS,", "ALL,",
    "0", "1", "2.5", "10", "1e400", "1e307", "1.7e308", "nan", "-inf", "1_0", "\u0661", ",",
    "\n", "\r", "\r\n", '"', "#", " ", "\ufeff", "\x00", "[", "]", "{", "}", '{"group": ',
    '"participant_id": ', '"term": ', '"l": ', '"r": ', "null", "true", "[1]", '"P1"', ":",
]
texts = st.one_of(st.text(max_size=80), st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
raw = st.one_of(st.binary(max_size=80), texts.map(lambda t: t.encode("utf-8", "surrogatepass")))

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(raw, st.sampled_from(["csv", "json"]))
def test_load_survey_bytes_parse_or_agreement_error(data, fmt):
    with contextlib.suppress(AgreementError):
        load_survey(io.BytesIO(data), format=fmt)


@FUZZ
@given(texts, st.sampled_from(["csv", "json"]))
def test_load_survey_text_parse_or_agreement_error(text, fmt):
    with contextlib.suppress(AgreementError):
        load_survey(io.StringIO(text), format=fmt)


@FUZZ
@given(texts)
def test_parse_interval_lines_parse_or_agreement_error(text):
    with contextlib.suppress(AgreementError):
        parse_interval_lines(text)


def _parse_outcome(text):
    try:
        return parse_interval_lines(text).endpoints()
    except AgreementError as exc:
        return type(exc), str(exc), exc.line


@pytest.mark.parametrize("rows", [1, 3])
@FUZZ
@given(text=texts)
def test_parse_interval_lines_in_small_blocks_as_in_one(rows, text):
    whole = _parse_outcome(text)
    with patch.object(survey, "TEXT_LINES", rows):
        split = _parse_outcome(text)
    if isinstance(whole[0], type):
        assert split == whole
    else:
        assert all(map(np.array_equal, split, whole))


ARGVS = [
    ["gamma"], ["gamma", "--mode", "alpha", "--alpha-cuts", "7"], ["build", "--samples", "5"],
    ["attrs", "--samples", "7"], ["report"], ["report", "--input-format", "json"],
    ["report", "--mode", "alpha", "--samples", "9", "--alpha-cuts", "3"],
    ["series", "--group", "ALL", "--term", "ITD", "--samples", "3"],
    ["gamma", "--alpha-cuts", "1"],  # a usage error, whatever the file holds
]


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(raw, st.sampled_from(ARGVS))
@example(b"1e307,1.7e308\n2e307,1.6e308\n", ["attrs", "--samples", "7"])  # its moment overflows
def test_cli_on_a_file_exits_0_1_or_2(fuzz_file, data, argv):
    fuzz_file.write_bytes(data)
    code, out, err = _run_main([*argv, "--input", str(fuzz_file)])
    assert code in (0, 1, 2)
    assert (code == 1) == err.startswith("error: ")
    assert "Warning" not in err
    # every printed number is finite; a CSV report's names are not in its last three fields
    shown = [row.rsplit(",", 3)[1:] for row in out.splitlines()] if out[:6] == "group," else [[out]]
    tokens = {t for row in shown for field in row for t in re.split(r"[\s,=:\[\]{}]+", field)}
    assert not tokens & {"inf", "-inf", "nan", "Infinity", "-Infinity", "NaN"}
    # stdin with a byte buffer, as a real one has, gives the file's answer
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        assert _run_main([*argv, "--input", "-"]) == (code, out, err)
    finally:
        sys.stdin = saved
