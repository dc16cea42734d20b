import csv
import json
import re
import sys
import tracemalloc
from contextlib import ExitStack
from io import BytesIO, StringIO
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intervalagreement import (
    AgreementError,
    EmptySet,
    EmptySupport,
    Interval,
    InvalidCuts,
    InvalidInterval,
    ParseError,
    RangeError,
    TooFewSources,
    UnknownGroup,
    UnknownTerm,
    attributes,
    build_iaa,
    collection,
    emit_series,
    gamma_exact,
    group_collection,
    load_survey,
    make_interval,
    report,
)
from intervalagreement import fuzzyset, intervals, survey
from intervalagreement.fuzzyset import step_at
from intervalagreement.survey import (
    CSV_HEADER,
    TERM_ORDER,
    canonical_term,
    read_text,
    report_to_csv,
    report_to_json,
)

from helpers import oracle_load_survey, oracle_report, series_blocks, series_to_csv, series_to_json

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "survey_fixture.csv"


@pytest.fixture(scope="module")
def ds():
    return load_survey(FIXTURE)


# --------------------------------------------------------------------- loading

def test_load_happy_path(ds):
    assert ds.groups == ("Patient", "Physiotherapist", "Surgeon")
    assert ds.terms == ("ITD", "ED")
    assert len(ds.records) == 17
    assert ds.records[0].interval.l == 2.0


def test_load_accepts_byte_stream():
    raw = FIXTURE.read_bytes()
    assert len(load_survey(BytesIO(raw)).records) == 17


def test_load_json_mirror(ds):
    payload = [
        {"group": r.group, "participant_id": r.participant_id, "term": r.term,
         "l": r.interval.l, "r": r.interval.r}
        for r in ds.records
    ]
    ds2 = load_survey(StringIO(json.dumps(payload)), format="json")
    assert ds2.records == ds.records


def test_full_name_aliases_canonicalised():
    assert canonical_term("Impossible To Do") == "ITD"
    assert canonical_term("a little bit  difficult") == "ALBD"
    assert canonical_term("somewhat tricky") == "somewhat tricky"
    text = "group,participant_id,term,l,r\nPatient,P01,Not at all difficult,8,9\n"
    assert load_survey(StringIO(text)).terms == ("NAAD",)


def test_reversed_interval_reports_line():
    text = "group,participant_id,term,l,r\nPatient,P01,ITD,4,2\n"
    with pytest.raises(InvalidInterval, match="line 2") as info:
        load_survey(StringIO(text))
    assert info.value.line == 2
    assert str(info.value) == "line 2: left endpoint exceeds right: [4.0, 2.0]"


def test_reversed_json_interval_reports_record():
    text = '[{"group": "Patient", "participant_id": "P01", "term": "ITD", "l": 4, "r": 2}]'
    with pytest.raises(InvalidInterval) as info:
        load_survey(StringIO(text), format="json")
    assert info.value.line == 1


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("kind", ["str", "bytes", "path"])
def test_load_strips_utf8_bom(ds, format, kind, tmp_path):
    if format == "csv":
        text = FIXTURE.read_text(encoding="utf-8")
    else:
        text = json.dumps([
            {"group": r.group, "participant_id": r.participant_id, "term": r.term,
             "l": r.interval.l, "r": r.interval.r}
            for r in ds.records
        ])
    raw = b"\xef\xbb\xbf" + text.encode("utf-8")
    if kind == "str":
        source = StringIO(raw.decode("utf-8"))
    elif kind == "bytes":
        source = BytesIO(raw)
    else:
        source = tmp_path / "bom.txt"
        source.write_bytes(raw)
    assert load_survey(source, format=format).records == ds.records


@pytest.mark.parametrize(
    "l,r",
    [("true", "1"), ("0", "false"), ("true", "true"), ("0", "1" + "0" * 400)],
    ids=["l-true", "r-false", "both-bool", "int-beyond-float"],
)
def test_json_non_float_endpoints_rejected(l, r):
    text = (
        '[{"group": "Patient", "participant_id": "P01", "term": "ITD", "l": 0, "r": 1},'
        f' {{"group": "Patient", "participant_id": "P02", "term": "ITD", "l": {l}, "r": {r}}}]'
    )
    with pytest.raises(ParseError, match="numbers") as info:
        load_survey(StringIO(text), format="json")
    assert info.value.line == 2


def test_json_integer_literal_too_long_rejected():
    text = '[{"group": "Patient", "participant_id": "P01", "term": "ITD", "l": 0, "r": %s}]'
    with pytest.raises(ParseError, match="invalid JSON"):
        load_survey(StringIO(text % ("1" * 5000)), format="json")


HEADER = "group,participant_id,term,l,r\n"


def test_invalid_utf8_is_parse_error(tmp_path):
    data = (HEADER + "Patient,P01,ITD,1,2\n").encode() + b"\xff\xfe1,2\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    for source in (BytesIO(data), path, str(path)):
        with pytest.raises(ParseError, match="not valid UTF-8") as info:
            load_survey(source)
        assert info.value.line == 3


def test_read_text_same_for_path_bytes_and_text_stream(tmp_path):
    rows = ["Patient,P01,ITD,1,2", "Patient,P02,ITD,2,3", "Surgeon,S01,ED,0,1"]
    data = b"\xef\xbb\xbf" + (HEADER + rows[0] + "\r\n" + rows[1] + "\r" + rows[2] + "\n").encode()
    path = tmp_path / "mixed.csv"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as text_stream:
        texts = [read_text(path), read_text(str(path)), read_text(BytesIO(data)),
                 read_text(text_stream)]
    assert texts == [HEADER + "\n".join(rows) + "\n"] * 4


def test_oversized_csv_field_is_parse_error():
    text = HEADER + "Patient,P01,ITD,1,2\n" + "x" * 131_073 + ",P02,ITD,1,2\n"
    with pytest.raises(ParseError, match="malformed CSV: field larger") as info:
        load_survey(StringIO(text))
    assert info.value.line == 3


class CsvReaderCalled(Exception):
    pass


def _csv_reader_called(*args, **kwargs):
    raise CsvReaderCalled


QUOTE_FREE = (HEADER + "Patient,P01,ITD,1,2\n , , , , \n\n"
              + "Surgeon,S\x0b1,ED,0,3\nNurse,N\u20281,ED,2,4\n")


@pytest.mark.parametrize(
    "text",
    [
        QUOTE_FREE,
        QUOTE_FREE.removesuffix("\n"),
        HEADER,
        QUOTE_FREE + "Patient,P02,ITD,0\n",  # a line without four commas
        QUOTE_FREE + "Patient,P02,ITD,0,1,2\nNurse,N2,ITD,1,2\n",
        QUOTE_FREE + ",,\nPatient,P02,ITD,4,2\n",
        QUOTE_FREE + "Patient,P01,ITD,0,1\n",
        "a,b,c,d,e\nPatient,P01,ITD,0,1\n",
        "\nPatient,P01,ITD,0,1",
    ],
)
def test_quote_free_csv_is_split_without_csv_reader(monkeypatch, text):
    want = _outcome(lambda: oracle_load_survey(text))
    monkeypatch.setattr(survey.csv, "reader", _csv_reader_called)
    got = _outcome(lambda: load_survey(StringIO(text)))
    failed = bool(want) and isinstance(want[0], type)
    assert (got if failed else got.records) == want


@pytest.mark.parametrize(
    "text",
    [
        QUOTE_FREE.replace("P01", '"P01"'),
        QUOTE_FREE.replace("\n", "\r\n"),
        QUOTE_FREE.replace("P01", "P\x0001"),
        QUOTE_FREE + "G" * csv.field_size_limit() + ",P01,ITD,1,2\n",
        "",
    ],
)
def test_other_csv_goes_through_csv_reader(monkeypatch, text):
    monkeypatch.setattr(survey.csv, "reader", _csv_reader_called)
    with pytest.raises(CsvReaderCalled):
        load_survey(StringIO(text))


def test_line_longer_than_field_limit_loads_as_csv_reader_reads_it():
    limit = csv.field_size_limit()
    group, pid = "G" * limit, "P" * (limit // 2)
    text = HEADER + f"Patient,P01,ITD,1,2\n{group},{pid},ITD,1,2\n{group},P01,ED,0,1\n"
    ds = load_survey(StringIO(text))
    assert ds.records == oracle_load_survey(text)
    assert (ds.groups, ds.participant_ids) == (("Patient", group), ("P01", pid))
    with pytest.raises(ParseError, match="duplicate") as info:
        load_survey(StringIO(text + f"{group},{pid},ITD,2,3\n"))
    assert info.value.line == 5


def test_deeply_nested_json_is_parse_error():
    with pytest.raises(ParseError, match="invalid JSON"):
        load_survey(StringIO("[" * 100_000), format="json")


@pytest.mark.parametrize(
    "key,value,kind",
    [("group", {"a": 1}, "an object"), ("participant_id", None, "null"),
     ("term", ["ITD"], "an array"), ("group", True, "a boolean")],
)
def test_json_names_must_be_strings_or_numbers(key, value, kind):
    good = {"group": "Patient", "participant_id": 7, "term": "ITD", "l": 1, "r": 2}
    assert load_survey(StringIO(json.dumps([good])), format="json").participant_ids == ("7",)
    with pytest.raises(ParseError) as info:
        load_survey(StringIO(json.dumps([good, {**good, key: value}])), format="json")
    assert str(info.value) == f"line 2: {key} must be a string or a number, not {kind}"


def test_underscore_endpoints_rejected():
    # float() reads 0_5,1_0 as 5,10: inside the scale, so only the check stops it
    with pytest.raises(ParseError, match="endpoints must be numbers") as info:
        load_survey(StringIO(HEADER + "Patient,P_01,ITD,1,2\nPatient,P_02,ITD,0_5,1_0\n"))
    assert info.value.line == 3
    record = {"group": "Patient", "participant_id": "P01", "term": "ITD", "l": "1_0", "r": 10}
    with pytest.raises(ParseError, match="endpoints must be numbers") as info:
        load_survey(StringIO(json.dumps([record])), format="json")
    assert info.value.line == 1
    # underscores elsewhere keep the columnar path
    ds = load_survey(StringIO(HEADER + "Pa_tient,P_01,IT_D,1,2\n"))
    assert (ds.groups, ds.participant_ids, ds.term_names) == (("Pa_tient",), ("P_01",), ("IT_D",))


def test_non_ascii_digit_endpoints_rejected():
    # float() reads "\u0661" (Arabic-Indic one) as 1 and "\uff12" (full-width two) as 2
    text = HEADER + "Patient,P01,ITD,1,2\nPatient,P02,ITD,\u0661,\uff12\n"
    with pytest.raises(ParseError, match="endpoints must be numbers") as info:
        load_survey(StringIO(text))
    assert info.value.line == 3
    record = {"group": "Patient", "participant_id": "P01", "term": "ITD", "l": 1, "r": "\u0662"}
    with pytest.raises(ParseError, match="endpoints must be numbers") as info:
        load_survey(StringIO(json.dumps([{**record, "r": 2}, record])), format="json")
    assert info.value.line == 2
    # non-ASCII names, and non-ASCII space around an endpoint, still load
    ds = load_survey(StringIO(HEADER + "Patient,P\u00fc,ITD,1,\u00a02\n"))
    assert ds.participant_ids == ("P\u00fc",) and ds.r.tolist() == [2.0]


def test_out_of_scale_reports_line():
    text = "group,participant_id,term,l,r\nSurgeon,S03,NAAD,9,11\n"
    with pytest.raises(RangeError, match="line 2"):
        load_survey(StringIO(text))
    # a wider scale makes the same row valid
    assert len(load_survey(StringIO(text), scale=make_interval(0, 20)).records) == 1


@pytest.mark.parametrize(
    "row,match",
    [
        ("Patient,P01,ITD,zero,1", "numbers"),
        ("Patient,P01,ITD,0", "5 fields"),
        (",P01,ITD,0,1", "non-empty"),
        ("ALL,P01,ITD,0,1", "reserved"),
    ],
)
def test_malformed_rows_rejected(row, match):
    text = f"group,participant_id,term,l,r\n{row}\n"
    with pytest.raises(ParseError, match=match):
        load_survey(StringIO(text))


def test_bad_header_rejected():
    with pytest.raises(ParseError, match="header"):
        load_survey(StringIO("a,b,c,d,e\nPatient,P01,ITD,0,1\n"))


def test_duplicate_response_rejected():
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P01,ITD,0,1\n"
        "Patient,P01,ITD,2,3\n"
    )
    with pytest.raises(ParseError, match="duplicate"):
        load_survey(StringIO(text))


def test_json_missing_key_rejected():
    with pytest.raises(ParseError, match="missing"):
        load_survey(StringIO('[{"group": "Patient"}]'), format="json")


# -------------------------------------------------------------------- grouping

def test_group_collection_counts(ds):
    assert group_collection(ds, "Patient", "ITD").n == 2
    assert group_collection(ds, "ALL", "ITD").n == 8
    assert group_collection(ds, "ALL", "ED").n == 9
    assert group_collection(ds, "PS", "ITD").n == 6
    assert group_collection(ds, "PS", "ED").n == 5


def test_group_collection_accepts_alias(ds):
    coll = group_collection(ds, "Patient", "impossible to do")
    assert coll.n == 2


def _filtered_collection(ds, group, term):
    """Reference grouping: scan every record, keep the matching ones in order."""
    stored = ds.groups
    if group == "ALL":
        wanted = set(stored)
    elif group == "PS":
        wanted = {g for g in stored if g in ("Physiotherapist", "Surgeon")}
    else:
        wanted = {group}
    return [r.interval for r in ds.records if r.group in wanted and r.term == term]


MIXED_ROWS = (
    "group,participant_id,term,l,r\n"
    "Surgeon,S1,ED,1,4\nPatient,P1,ITD,0,2\nPhysiotherapist,T1,ED,2,5\n"
    "Patient,P2,ED,3,6\nSurgeon,S2,ITD,1,3\nNurse,N1,ED,0,9\nPatient,P1,ED,4,8\n"
    "Physiotherapist,T2,ED,1,2\nSurgeon,S1,odd term,5,7\nPatient,P3,ITD,2,2\n"
)


@pytest.mark.parametrize("text", [FIXTURE.read_text(), MIXED_ROWS], ids=["fixture", "mixed"])
def test_group_collection_matches_record_filter(text):
    ds = load_survey(StringIO(text))
    for group in (*ds.groups, "PS", "ALL"):
        for term in ds.terms:
            expected = _filtered_collection(ds, group, term)
            if not expected:
                with pytest.raises(TooFewSources):
                    group_collection(ds, group, term)
                continue
            assert group_collection(ds, group, term).intervals == tuple(expected)


def test_cell_index_sorts_each_response_once():
    """The cell index keys each response once, by (term, group): its traced
    peak is the keys, the order and some slack, at most 3 x 8 bytes a row (an
    index with a second copy of every response for "ALL" takes about 8 x 8).
    A cell holds its group's answers to its term in response order, and a
    term's "ALL" span is its group cells side by side."""
    n, ng, nt = 200_000, 20, 5
    rng = np.random.default_rng(22)
    groups, terms, ends = rng.integers(0, ng, n), rng.integers(0, nt, n), np.zeros(n)
    ds = survey.SurveyDataset(Interval(0.0, 10.0), tuple(f"G{g}" for g in range(ng)), groups,
                              ("P1",), np.zeros(n, np.intp), tuple(f"T{t}" for t in range(nt)),
                              terms, ends, ends)
    tracemalloc.start()
    try:
        order, bounds = ds._index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n
    for t in range(nt):
        cells = [order[bounds[t * ng + g]:bounds[t * ng + g + 1]] for g in range(ng)]
        for g, rows in enumerate(cells):
            assert np.array_equal(rows, np.flatnonzero((terms == t) & (groups == g)))
        assert np.array_equal(order[bounds[t * ng]:bounds[(t + 1) * ng]], np.concatenate(cells))
        assert np.array_equal(ds._rows(range(ng), f"T{t}"), np.flatnonzero(terms == t))


def test_groups_and_terms_in_first_appearance_order():
    ds = load_survey(StringIO(MIXED_ROWS))
    assert ds.groups == ("Surgeon", "Patient", "Physiotherapist", "Nurse")
    assert ds.terms == ("ITD", "ED", "odd term")


def test_unknown_group_and_term(ds):
    with pytest.raises(UnknownGroup):
        group_collection(ds, "Nurse", "ITD")
    with pytest.raises(UnknownTerm):
        group_collection(ds, "Patient", "XYZ")


def test_ps_requires_professional_groups():
    text = "group,participant_id,term,l,r\nPatient,P01,ITD,0,1\n"
    ds2 = load_survey(StringIO(text))
    with pytest.raises(UnknownGroup):
        group_collection(ds2, "PS", "ITD")


# ------------------------------------------------------------------- reporting

def test_report_matches_golden_file(ds):
    golden = (DATA / "report_golden.csv").read_text()
    assert report_to_csv(report(ds)) == golden


def test_report_row_order_and_shape(ds):
    rep = report(ds)
    assert [(r.group, r.term) for r in rep.rows] == [
        ("Patient", "ITD"), ("Patient", "ED"),
        ("Physiotherapist", "ITD"), ("Physiotherapist", "ED"),
        ("Surgeon", "ITD"), ("Surgeon", "ED"),
        ("ALL", "ITD"), ("ALL", "ED"),
    ]
    assert rep.skipped == ()


def test_report_gammas_revalidate(ds):
    for row in report(ds).rows:
        coll = group_collection(ds, row.group, row.term)
        assert row.gamma == pytest.approx(gamma_exact(coll).gamma, abs=1e-12)
        assert row.n == coll.n


def test_report_skips_thin_cells():
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P01,ITD,0,1\n"
        "Patient,P01,ED,1,2\n"
        "Patient,P02,ED,1,3\n"
    )
    rep = report(load_survey(StringIO(text)))
    assert [(r.group, r.term) for r in rep.rows] == [("Patient", "ED"), ("ALL", "ED")]
    assert ("Patient", "ITD", "fewer than 2 responses") in rep.skipped


def test_report_alpha_mode(ds):
    exact = report(ds, mode="exact")
    alpha = report(ds, mode="alpha", alpha_cuts=10)
    assert [(r.group, r.term) for r in alpha.rows] == [(r.group, r.term) for r in exact.rows]
    for row in alpha.rows:
        assert 0.0 <= row.gamma <= 1.0


def test_report_json_round_trips(ds):
    payload = json.loads(report_to_json(report(ds)))
    assert len(payload) == 8
    first = payload[0]
    assert list(first) == [
        "group", "term", "height", "centroid", "agreement_ratio",
        "support_length", "core_length", "n",
    ]
    assert first["agreement_ratio"] == 0.5


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_csv_quotes_names_that_need_it(fmt):
    """A name holding a comma, a quote, a carriage return or a line feed is
    quoted, its quotes doubled: ``csv.reader`` reads every row back as five
    fields, with the dataset's names. (A term's line breaks are read as
    spaces, so only groups hold them.)"""
    groups = ["Pa,tient", 'Sur"geon', "Physio\rtherapist", "Nur\nse", "Plain"]
    terms = ['M"D', "E,D"]
    rows = [(g, f"P{p}", t, p, p + 2) for g in groups for t in terms for p in range(2)]
    if fmt == "csv":
        quoted = ['"' + str(v).replace('"', '""') + '"' for row in rows for v in row]
        text = "\n".join([",".join(CSV_HEADER), *map(",".join, zip(*[iter(quoted)] * 5))])
    else:
        text = json.dumps([dict(zip(CSV_HEADER, row)) for row in rows])
    ds = load_survey(StringIO(text), format=fmt)
    assert (ds.groups, ds.terms) == (tuple(groups), tuple(terms))
    rep = report(ds)
    read = list(csv.reader(StringIO(report_to_csv(rep), newline="")))
    assert read[0] == ["group", "term", "height", "centroid", "agreement_ratio"]
    assert [len(row) for row in read[1:]] == [5] * len(rep.rows) == [5] * 12
    assert [tuple(row[:2]) for row in read[1:]] == [(r.group, r.term) for r in rep.rows]


def test_identical_cell_reports_gamma_one():
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P01,MD,4,6\n"
        "Patient,P02,MD,4,6\n"
    )
    rep = report(load_survey(StringIO(text)))
    assert all(r.gamma == 1.0 for r in rep.rows)


def _survey_text(responses) -> str:
    """Survey CSV of (group, participant, term, l, r) tuples."""
    lines = [",".join(CSV_HEADER)]
    lines.extend(f"{group},P{pid},{term},{l!r},{r!r}" for group, pid, term, l, r in responses)
    return "\n".join(lines) + "\n"


def _outcome(run):
    """A report, or the (type, message, cell) of the error it raises."""
    try:
        return run()
    except AgreementError as exc:
        return type(exc), str(exc), exc.cell


def _assert_same_report(ds, mode, alpha_cuts, samples):
    want = _outcome(lambda: oracle_report(ds, mode, alpha_cuts, samples))
    got = _outcome(lambda: report(ds, mode=mode, alpha_cuts=alpha_cuts, samples=samples))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.skipped == want.skipped
    assert len(got.rows) == len(want.rows)
    for row, expected in zip(got.rows, want.rows):
        assert repr(row) == repr(expected)  # every field, floats to the bit, the sign of 0 too


def _endpoints(draw, low):
    """An interval on the [low, 10] scale: quarter points, so that ties, touching
    and zero-width responses are common, each moved off the lattice now and
    then, so that lengths and sums are inexact. Half the intervals start near
    0, and an endpoint at 0 is 0.0 or -0.0."""
    left = draw(st.integers(4 * low, 40) | st.integers(max(4 * low, -2), 2))
    width = draw(st.sampled_from([0, 1, 2, 3, 8, 20]))
    jitter = st.sampled_from([0.0, 0.0, 0.0, 0.01, 0.07, 1 / 3])
    l = min(left / 4 + draw(jitter), 10.0)
    r = min((left + width) / 4 + draw(jitter), 10.0) if width else l
    return tuple(draw(st.sampled_from([0.0, -0.0])) if x == 0 else x for x in (min(l, r), r))


@st.composite
def _responses(draw):
    """Responses to a few terms by a few groups, 0 to 12 per cell, in any order,
    on the [0, 10] scale or, with negative endpoints, on [-10, 10]."""
    groups = draw(st.lists(st.sampled_from(["Patient", "Physiotherapist", "G3"]), min_size=1,
                           max_size=3, unique=True))
    terms = draw(st.lists(st.sampled_from([*TERM_ORDER, "T1", "T2", "T3"]), min_size=1,
                          max_size=6, unique=True))
    low = draw(st.sampled_from([0, -10]))
    responses = [
        (group, p, term, *_endpoints(draw, low))
        for group in groups
        for term in terms
        for p in range(draw(st.integers(0, 12)))
    ]
    return draw(st.permutations(responses)) if responses else [("G3", 1, "T1", 0.0, 0.0)]


_TOUCHING = [("Patient", 1, "ITD", 0.0, 3.0), ("Patient", 2, "ITD", 1.0, 3.0),
             ("Patient", 1, "ED", 3.0, 5.0), ("Patient", 2, "ED", 3.5, 4.0)]


@settings(max_examples=150)
@example([("G3", 1, "T1", 0.0, 0.0), ("G3", 2, "T1", 0.0, 0.0)], "exact", 2, 2, 2)  # one point
# Patient/ED starts on 3, where Patient/ITD ends at level 1: one block, whose ED grid row
# starts on that coordinate and must read ED's 1/2 there
@example(_TOUCHING, "exact", 4, 101, 20_000)
@example(_TOUCHING, "alpha", 4, 101, 20_000)
@given(
    _responses(),
    st.sampled_from(["exact", "alpha"]),
    st.integers(2, 30),
    st.one_of(st.integers(2, 3000), st.sampled_from([32_769, 40_000, 65_537])),
    st.one_of(st.integers(2, 20_000), st.just(1 << 20)),
)
def test_report_matches_per_cell_loop(responses, mode, alpha_cuts, samples, budget):
    """A small block budget makes blocks of one cell or a few, a large one a
    block of every cell; over 32,768 samples a row spans several grid chunks,
    and a budget of 2^20 puts several such rows in one block. Groups are
    interleaved, so an "ALL" cell reaches the sweep in another order than the
    oracle's, with -0.0 and 0.0 among its endpoints."""
    ds = load_survey(StringIO(_survey_text(responses)), scale=Interval(-10.0, 10.0))
    with patch.object(survey, "GRID_CHUNK", budget):
        _assert_same_report(ds, mode, alpha_cuts, samples)


def _report_blocks(ds, mode, alpha_cuts, samples):
    """``_assert_same_report``, and the response counts of the cells of each
    block that ``report`` measured together, block by block."""
    blocks, block = [], survey._report_block

    def spy(names, ls, rs, n, *args):
        blocks.append(n.tolist())
        return block(names, ls, rs, n, *args)

    with patch.object(survey, "_report_block", spy):
        _assert_same_report(ds, mode, alpha_cuts, samples)
    return blocks


@pytest.mark.parametrize("mode", ["exact", "alpha"])
def test_report_matches_per_cell_loop_across_blocks(mode):
    """The shipped budget: 453 cells fill 16 blocks (the same in both modes),
    and the 9,000-response G1/MD and G2/MD cells and the 18,000-response ALL/MD
    cell each share their block with 15- or 30-response cells."""
    rng = np.random.default_rng(11)
    terms = [("MD", 9000)] + [(f"T{i:03d}", 15) for i in range(150)]
    responses = [
        (group, p, term, *sorted(np.round(rng.uniform(0.0, 10.0, 2), 2).tolist()))
        for term, participants in terms
        for group in ("G1", "G2")
        for p in range(participants)
    ]
    ds = load_survey(StringIO(_survey_text(responses)))
    blocks = _report_blocks(ds, mode, 7, 1001)
    assert len(blocks) == 16
    assert [(b[0], len(b)) for b in blocks if b[0] > 30] == [(9000, 23), (9000, 23), (18000, 14)]


@pytest.mark.parametrize("mode", ["exact", "alpha"])
@pytest.mark.parametrize("budget", [1, 2040, 5000, 1 << 15])
def test_report_blocks_close_on_their_cost(mode, budget):
    """A block is the next cells, at least one, whose costs add up to at most
    ``GRID_CHUNK``; a cell costs its responses plus its grid points, 1,001
    samples plus, in alpha mode, 7 cuts. Each block is as long as the budget
    lets it be, a cell over it is a block of its own, and the rows stay the
    per-cell loop's. At 2,040 two cells share a block in exact mode if they
    hold up to 38 responses, in alpha mode up to 24."""
    rng = np.random.default_rng(5)
    sizes = rng.integers(2, 30, 40).tolist()
    terms = [("MD", 60)] + [(f"T{i:02d}", k) for i, k in enumerate(sizes)]
    responses = [
        (group, p, term, *sorted(np.round(rng.uniform(0.0, 10.0, 2), 2).tolist()))
        for term, participants in terms
        for group in ("G1", "G2")
        for p in range(participants)
    ]
    ds = load_survey(StringIO(_survey_text(responses)))
    points = 1001 + (7 if mode == "alpha" else 0)
    with patch.object(survey, "GRID_CHUNK", budget):
        blocks = _report_blocks(ds, mode, 7, 1001)
    assert sum(map(len, blocks)) == 3 * len(terms)
    for b, after in zip(blocks, blocks[1:] + [None]):
        cost = sum(b) + points * len(b)
        assert len(b) == 1 or cost <= budget
        assert after is None or cost + after[0] + points > budget
    assert budget == 1 or max(map(len, blocks)) > 1


@pytest.mark.parametrize("mode", ["exact", "alpha"])
def test_report_sweeps_each_reported_cell_once(mode):
    """Each reported cell gets exactly one ``coverage_cells`` call, counted at
    every module that looks it up: no step of a block sweeps a cell again. The
    fixture's 8 cells, of up to 9 responses, fill 3 blocks of at most 3."""
    ds = load_survey(FIXTURE)
    sweep, calls = intervals.coverage_cells, []

    def counted(coll):
        calls.append(coll.n)
        return sweep(coll)

    sites = [m for name, m in sorted(sys.modules.items())
             if name.startswith("intervalagreement") and hasattr(m, "coverage_cells")]
    with ExitStack() as stack:
        for site in sites:
            stack.enter_context(patch.object(site, "coverage_cells", counted))
        stack.enter_context(patch.object(survey, "GRID_CHUNK", 3 * (1011 + 9)))
        rep = report(ds, mode=mode)
    assert survey in sites
    assert calls == [row.n for row in rep.rows] and len(calls) == 8


def test_report_matches_per_cell_loop_on_an_underflowing_grid_step():
    """ITD's grid step, 1e-321 / 1000, underflows to 0, which switches
    ``np.linspace`` to another method; ED, in the same block, keeps its own
    (ED's centroid is one of those the other method moves by an ulp)."""
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P1,ITD,0,1e-321\nPatient,P2,ITD,0,1e-321\n"
        "Patient,P1,ED,2.03,2.62\nPatient,P2,ED,2.8,7.5\nPatient,P3,ED,4.85,9.81\n"
    )
    ds = load_survey(StringIO(text))
    _assert_same_report(ds, "exact", 10, 1001)
    assert [r.term for r in report(ds).rows] == ["ITD", "ED", "ITD", "ED"]


def test_report_names_the_first_cell_to_fail():
    """Patient/ED, the second cell of the first block, is all points: it
    raises the per-cell path's EmptySet, and ``.cell`` names it."""
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P1,ITD,1,4\nPatient,P2,ITD,2,3.3\n"
        "Patient,P1,ED,5,5\nPatient,P2,ED,7,7\n"
        "Surgeon,S1,ED,5,5\nSurgeon,S2,ED,6,6\n"
    )
    ds = load_survey(StringIO(text))
    _assert_same_report(ds, "exact", 10, 1001)
    with pytest.raises(EmptySet) as exc:
        report(ds)
    assert exc.value.cell == ("Patient", "ED")


def test_report_alpha_mode_names_the_empty_lowest_cut():
    """Patient/ED's [3, 7] has width 4, but its agreement set never reaches
    the lowest of 2 cuts, alpha = 1/2: it raises EmptySupport naming that cut,
    as ``gamma_alpha`` on its own collection does."""
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P1,ITD,1,4\nPatient,P2,ITD,2,3.3\n"
        "Patient,P1,ED,2,2\nPatient,P2,ED,5,5\nPatient,P3,ED,3,7\n"
    )
    ds = load_survey(StringIO(text))
    _assert_same_report(ds, "alpha", 2, 1001)
    with pytest.raises(EmptySupport) as exc:
        report(ds, mode="alpha", alpha_cuts=2)
    assert exc.value.cell == ("Patient", "ED")
    assert str(exc.value) == (
        "the lowest alpha-cut (alpha = 1/2) has zero length; no lengths to compare"
    )
    assert [row.gamma for row in report(ds).rows if row.term == "ED"] == [0.0, 0.0]


@pytest.mark.parametrize("mode", ["exact", "alpha"])
def test_report_matches_per_cell_loop_in_blocks_of_several_chunks(mode):
    """One block of every cell, each row 65,537 grid points (three chunks):
    ITD's grid step, 1e-321 / 65,536, underflows to 0, and MD's coordinates
    hold both signs of zero."""
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P1,ITD,0,1e-321\nPatient,P2,ITD,0,1e-321\n"
        "Patient,P1,ED,2.03,2.62\nPatient,P2,ED,2.8,7.5\nPatient,P3,ED,4.85,9.81\n"
        "Patient,P1,MD,-0.0,1.5\nPatient,P2,MD,0,2\nPatient,P3,MD,-0,0\n"
        "Surgeon,S1,MD,0,3\nSurgeon,S2,MD,-0.0,0.25\nSurgeon,S1,ED,1,4\nSurgeon,S2,ED,2,2\n"
    )
    ds = load_survey(StringIO(text))
    with patch.object(survey, "GRID_CHUNK", 1 << 30):
        _assert_same_report(ds, mode, 3, 65_537)
        assert len(report(ds, mode=mode, alpha_cuts=3, samples=65_537).rows) == 8


def test_report_memory_is_bounded_at_any_samples():
    """The centroid grids are walked in chunks: at 4,000,001 samples a whole
    row would be 32 MB."""
    ds = load_survey(FIXTURE)
    tracemalloc.start()
    try:
        rep = report(ds, samples=4_000_001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 8
    assert peak < 8e6


# (first endpoint, unit): a cell's endpoints are first + k * unit, k = 0..6
_GRID_CASES = {
    "lattice": (0.0, 1.0),  # grid points exactly on coordinates at 11, 101 and 1001 samples
    "thirds": (0.0, 1 / 3),  # inexact: a guess from the step can miss by one point
    "underflow": (0.0, 1e-322),  # at most 6e-322 wide: the step underflows past ~600 samples
    "subnormal": (0.0, 5e-324),  # a subnormal step: the points before hi can pass it
    "ulps": (1e15, 0.125),  # a few ulps wide: many points on each coordinate
    "zeros": (-0.0, 0.5),  # -0.0 and 0.0 endpoints, on a negative scale
    "huge": (1e308, 1e307),  # the moment passes the largest float: redone on the 2**-k grid
}
# at 12 samples two grid points round to 1e15 + 0.25, where the level falls from 1 to 1/2
_COLLAPSE = [("Patient", 1, "ITD", 1e15, 1e15 + 0.25), ("Patient", 2, "ITD", 1e15, 1e15 + 0.5)]
_WIDE = Interval(-10.0, 1.7e308)  # a negative scale, wide enough for every case


@st.composite
def _grid_survey(draw):
    """Responses of one or two groups to one to three terms, 2 to 6 each, with endpoints
    first + k * unit of one of _GRID_CASES (0 drawn as 0.0 or -0.0), and the report's
    samples: 11, 101 or 1001 on the integer lattice, else small or up to 1001."""
    case = draw(st.sampled_from(sorted(_GRID_CASES)))
    base, unit = _GRID_CASES[case]
    responses = []
    for group in draw(st.lists(st.sampled_from(["Patient", "Surgeon"]), min_size=1,
                               max_size=2, unique=True)):
        for term in draw(st.lists(st.sampled_from(TERM_ORDER[:3]), min_size=1, max_size=3,
                                  unique=True)):
            for p in range(draw(st.integers(2, 6))):
                k = sorted(draw(st.lists(st.integers(0, 6), min_size=2, max_size=2)))
                ends = [base + j * unit for j in k]
                responses.append((group, p, term, *(
                    draw(st.sampled_from([0.0, -0.0])) if x == 0 else x for x in ends)))
    if case == "lattice":
        samples = draw(st.sampled_from([11, 101, 1001]))
    else:
        samples = draw(st.sampled_from([2, 3, 10, 11, 101, 1001]) | st.integers(2, 200))
    return case, responses, samples


def _placements_checked(found):
    """A ``survey._grid_places`` whose ``place(a, b)`` is held, by ``tobytes``, to each
    placed row's ``np.linspace`` points looked up by per-row ``searchsorted`` and
    ``step_at``; each block's placed rows are appended to ``found``."""
    real = survey._grid_places

    def checked(steps, coords, cell, first, m, samples):
        placed, place = real(steps, coords, cell, first, m, samples)
        found.append(placed.tolist())

        def place_checked(a, b):
            mus = place(a, b)
            rows = np.flatnonzero(placed)
            want = []
            for r in rows.tolist():
                c = coords[first[r]:first[r] + m[r]]
                x = np.linspace(c[0], c[-1], samples)[a:b]
                want.append(step_at(steps, coords, np.searchsorted(c, x, "right") + first[r], x))
            assert mus.tobytes() == np.stack(want).tobytes()
            return mus
        return placed, place_checked if placed.any() else place
    return checked


def _row_bytes(rep):
    return (tuple((r.group, r.term, r.n) for r in rep.rows), np.array(
        [[r.height, r.centroid, r.gamma, r.support_length, r.core_length] for r in rep.rows]
    ).tobytes(), rep.skipped)


@settings(max_examples=200)
@example(("lattice", [("Patient", p, "ITD", float(p), float(p + 3)) for p in range(4)], 11),
         "exact", 5, 1 << 15, 4)
@example(("subnormal", [("Patient", 1, "ITD", 0.0, 25e-324), ("Patient", 2, "ITD", 0.0, 25e-324)],
          10), "exact", 5, 1 << 15, 4)  # the points before hi pass it: 8 ulps, then hi at 5
@example(("huge", [("Patient", p, "ITD", 1e308, 1.5e308) for p in range(2)], 101),
         "alpha", 3, 16, 4)
@example(("ulps", _COLLAPSE, 12), "exact", 2, 1 << 15, 4)  # two points on 1e15 + 0.25
@example(("thirds", [("Patient", 1, "ITD", 2 / 3, 4 / 3), ("Patient", 2, "ITD", 1.0, 4 / 3)], 13),
         "exact", 2, 1 << 15, 0)  # the guess for 1.0 is one point past it: not settled
@given(_grid_survey(), st.sampled_from(["exact", "alpha"]), st.integers(2, 10),
       st.sampled_from([16, 128, 1 << 15]), st.sampled_from([0, 1, 4]))
def test_report_grid_rows_placed_equal_the_lookup(case, mode, alpha_cuts, chunk, checks):
    """Placed grid rows read, chunk by chunk, what today's per-row ``searchsorted`` and
    ``step_at`` read on ``np.linspace``'s points, and ``report`` equals ``oracle_report``
    by ``tobytes``: grid points on coordinates, an underflowing or subnormal step, many
    points per coordinate, both signs of zero on a negative scale, a moment redone on the
    2**-k grid, and walks of several chunks (the walk's GRID_CHUNK patched small). With
    0 or 1 edge checks, rows whose guesses do not settle are looked up."""
    _, responses, samples = case
    ds = load_survey(StringIO(_survey_text(responses)), scale=_WIDE)
    with patch.object(fuzzyset, "GRID_CHUNK", chunk):  # under 128, np.sum's bits no more
        want = _outcome(lambda: oracle_report(ds, mode, alpha_cuts, samples))
        with patch.object(survey, "_grid_places", _placements_checked([])), \
                patch.object(fuzzyset, "_EDGE_CHECKS", checks):
            got = _outcome(lambda: report(ds, mode=mode, alpha_cuts=alpha_cuts, samples=samples))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _row_bytes(got) == _row_bytes(want)


def _paper_survey(rng):
    """A paper-sized survey: 3 groups x 40 participants x 5 terms, unrounded endpoints."""
    centre, half = rng.uniform(1.5, 8.5, (3, 40, 5)), rng.uniform(0.25, 1.5, (3, 40, 5))
    lo, hi = (centre - half).tolist(), (centre + half).tolist()
    return [(g, p, t, lo[i][p][k], hi[i][p][k])
            for i, g in enumerate(["Patient", "Physiotherapist", "Surgeon"])
            for p in range(40) for k, t in enumerate(TERM_ORDER)]


@pytest.mark.parametrize("case, samples, placed", [
    ("paper", 1001, [[True] * 20]),  # 80 or 240 coordinates a cell: one block, all placed
    ("dense", 1001, [[False] * 3]),  # 300 to 900 coordinates: under 4 points each
    ("mixed", 1001, [[False, True, False, True]]),  # dense cells and small ones share a block
    ("underflow", 1001, [[False] * 2]),  # the step underflows: linspace's other rule
    ("ulps", 1001, [[False] * 2]),  # many points on each coordinate
    ("collapse", 12, [[False] * 2]),  # two points on one coordinate, its edges settled
    ("subnormal", 10, [[True] * 2]),  # a subnormal step: the points before hi pass it
    ("lattice", 17, [[True] * 2]),  # a point on each coordinate, the last before hi too
])
def test_report_grid_rows_take_their_path(case, samples, placed):
    """Which rows each block places and which keep the per-row lookup, and the report
    still equals the per-cell loop by ``tobytes``."""
    rng = np.random.default_rng(30)
    def drawn(group, term, count):
        return [(group, p, term, *sorted(rng.uniform(0, 10, 2).tolist())) for p in range(count)]
    if case == "paper":
        responses = _paper_survey(rng)
    elif case == "dense":
        responses = drawn("Patient", "ITD", 150) + drawn("Surgeon", "ITD", 300)
    elif case == "mixed":
        responses = drawn("Patient", "ITD", 150) + drawn("Patient", "ED", 3)
    elif case == "collapse":
        responses = _COLLAPSE
    elif case == "lattice":  # a step of 1/4: points 4 and 15 are on 1 and 3.75
        responses = [("Patient", 1, "ITD", 0.0, 4.0), ("Patient", 2, "ITD", 1.0, 3.75)]
    elif case == "subnormal":  # 5 ulps wide at 10 samples: a step of 1 ulp
        responses = [("Patient", 1, "ITD", 0.0, 25e-324), ("Patient", 2, "ITD", 0.0, 25e-324)]
    else:
        base, unit = _GRID_CASES[case]
        responses = [("Patient", 1, "ITD", base, base + 4 * unit),
                     ("Patient", 2, "ITD", base + unit, base + 2 * unit)]
    ds = load_survey(StringIO(_survey_text(responses)), scale=_WIDE)
    found = []
    with patch.object(survey, "_grid_places", _placements_checked(found)):
        got = report(ds, samples=samples)
    assert _row_bytes(got) == _row_bytes(oracle_report(ds, samples=samples))
    assert found == placed


THIN = "group,participant_id,term,l,r\nPatient,P01,ITD,0,1\nSurgeon,S01,ED,2,3\n"
TWO = "group,participant_id,term,l,r\nPatient,P01,ITD,0,1\nPatient,P02,ITD,0.5,2\n"


@pytest.mark.parametrize("text", [THIN, TWO], ids=["all-thin", "two-responses"])
@pytest.mark.parametrize(
    "args, error, message",
    [
        (dict(samples=1), ValueError, "samples must be >= 2, got 1"),
        (dict(samples=1, mode="bogus"), ValueError, "samples must be >= 2, got 1"),
        (dict(mode="bogus", alpha_cuts=1), ValueError, "mode must be exact or alpha, got 'bogus'"),
        (dict(mode="alpha", alpha_cuts=1), InvalidCuts, "need at least 2 alpha cuts, got 1"),
    ],
)
def test_report_checks_arguments_before_any_cell(text, args, error, message):
    ds = load_survey(StringIO(text))
    with pytest.raises(error) as exc:
        report(ds, **args)
    assert str(exc.value) == message
    if text == TWO:  # where a cell has data, the per-cell loop raises the same
        with pytest.raises(error, match=re.escape(message)):
            oracle_report(ds, **args)


def test_report_exact_mode_ignores_alpha_cuts():
    ds = load_survey(StringIO(TWO))
    assert report(ds, alpha_cuts=1) == report(ds)


def _centroids(pairs, samples):
    """``attributes``' centroid of the pairs' agreement set, then ``report``'s,
    in the rows of their one cell and of ALL, on the scale [0, 1.7e308]."""
    text = HEADER + "".join(f"A,P{i},ITD,{l!r},{r!r}\n" for i, (l, r) in enumerate(pairs))
    rows = report(load_survey(StringIO(text), scale=Interval(0.0, 1.7e308)), samples=samples).rows
    return [attributes(build_iaa(collection(pairs)), samples).centroid, *(r.centroid for r in rows)]


@given(
    pairs=st.lists(st.tuples(st.integers(0, 1930), st.integers(0, 1930))
                   .filter(lambda p: p[0] != p[1]).map(sorted), min_size=2, max_size=6),
    k=st.integers(1000, 1013),  # 1930 * 2**1013 < 1.7e308
    samples=st.sampled_from([2, 7, 1001, 70_000]),
)
@example(pairs=[(1e307, 1.7e308), (2e307, 1.6e308)], k=0, samples=1001)
def test_centroid_past_the_largest_float_is_finite_and_scales_exactly(pairs, k, samples):
    """A moment past the largest float is summed again on a grid scaled by a
    power of two, so scaling the endpoints by 2**k scales every centroid by
    exactly 2**k, and each stays finite, inside the support's hull."""
    scale = 2.0**k
    huge = _centroids([(l * scale, r * scale) for l, r in pairs], samples)
    assert huge == [c * scale for c in _centroids(pairs, samples)]
    lo, hi = min(l for l, _ in pairs) * scale, max(r for _, r in pairs) * scale
    assert all(np.isfinite(c) and lo <= c <= hi for c in huge)


# ---------------------------------------------------------------------- series

def test_series_plateau_for_identical_cell():
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P01,MD,4,6\n"
        "Patient,P02,MD,4,6\n"
    )
    xs, mus = emit_series(load_survey(StringIO(text)), "Patient", "MD", samples=101)
    assert xs[0] == 0.0 and xs[-1] == 10.0
    assert set(mus.tolist()) == {0.0, 1.0}
    assert all(m == 1.0 for x, m in zip(xs, mus) if 4 <= x <= 6)


def test_series_overlap_profile(ds):
    xs, mus = emit_series(ds, "Patient", "ITD", samples=1001)
    values = {m for m in mus.tolist()}
    assert values == {0.0, 0.5, 1.0}


def test_series_unknown_cell(ds):
    with pytest.raises(TooFewSources):
        emit_series(load_survey(StringIO(
            "group,participant_id,term,l,r\n"
            "Patient,P01,ITD,0,1\n"
            "Surgeon,S01,ED,1,2\n"
        )), "Patient", "ED")


def test_series_render_formats():
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P01,MD,4,6\n"
    )
    xs, mus = emit_series(load_survey(StringIO(text)), "Patient", "MD", samples=5)
    csv_text = series_to_csv(xs, mus)
    assert csv_text.splitlines()[0] == "x,mu"
    assert csv_text.splitlines()[3] == "5,1"
    assert csv_text.splitlines()[4] == "7.5,0"
    pairs = json.loads(series_to_json(xs, mus))
    assert pairs[2] == [5.0, 1.0]


@pytest.mark.parametrize("points", [0, 1, 2, 3, 4, 7])
def test_series_blocks_join_to_the_whole_text(monkeypatch, points):
    monkeypatch.setattr(survey, "TEXT_LINES", 3)
    rng = np.random.default_rng(points)
    xs = rng.uniform(-1e6, 1e6, points) * 10.0 ** rng.integers(-300, 300, points)
    mus = rng.uniform(0.0, 1.0, points)
    assert series_to_csv(xs, mus) == "\n".join(
        ["x,mu", *(f"{survey._fmt(x)},{survey._fmt(m)}" for x, m in zip(xs, mus))]) + "\n"
    assert series_to_json(xs, mus) == json.dumps(
        [[float(survey._fmt(x)), float(survey._fmt(m))] for x, m in zip(xs, mus)]) + "\n"
    assert len(list(series_blocks(xs, mus, "csv"))) == 1 + -(-points // 3)



_JSON_EDGES = [0.0, -0.0, 1.0, -7.0, 999999.4, 999999.5, 1e6, -1234567.0, 9.999994e15,
               9.999995e15, 1e16, 1e-4, 9.9999e-5, 1.5e-5, 1e308, 2.2250738585072014e-308,
               2.2e-308, 1e-310, 5e-324, -5e-324, float("inf"), float("-inf"), float("nan")]


@example(_JSON_EDGES)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_series_json_numbers_are_json_dumps_of_their_text(values):
    """A JSON series writes each value as ``json.dumps`` writes the float its ``.6g``
    text reads as: integers with ``.0``, exponents 6 to 15 written out, Infinity and
    NaN, and a subnormal's shorter repr."""
    xs = np.array(values)
    mus = xs[::-1].copy()
    assert "".join(survey.series_text([(xs, mus)], "json")) == json.dumps(
        [[float(survey._fmt(x)), float(survey._fmt(m))] for x, m in zip(xs, mus)]) + "\n"


@pytest.mark.parametrize("samples", [2, 3, 4, 7])
def test_grid_series_walks_linspace_in_blocks(monkeypatch, samples):
    """``grid_series`` gives ``np.linspace`` and ``membership`` on it, to the bit,
    TEXT_LINES points per block, and ``series_text`` of its blocks is the text of
    the whole arrays: on an underflowing step, a -0.0 end and a zero-width window too."""
    monkeypatch.setattr(survey, "TEXT_LINES", 3)
    fs = build_iaa(collection([(2, 5), (3, 5), (6, 8), (-0.0, 1e-321)]))
    for lo, hi in ((-1.0, 9.0), (0.0, 1e-321), (-0.0, 3.0), (5.0, 5.0)):
        blocks = list(survey.grid_series(fs, lo, hi, samples))
        xs = np.linspace(lo, hi, samples)
        mus = fs.membership(xs)
        assert [b.size for b, _ in blocks] == [min(3, samples - a) for a in range(0, samples, 3)]
        got = np.concatenate([b for b, _ in blocks]), np.concatenate([m for _, m in blocks])
        assert np.array_equal(np.array(got).view(np.int64), np.array([xs, mus]).view(np.int64))
        assert "".join(survey.series_text(iter(blocks), "csv")) == series_to_csv(xs, mus)
        assert "".join(survey.series_text(iter(blocks), "json")) == series_to_json(xs, mus)


# ------------------------------------------------- columnar loader vs per-row

GROUP_NAMES = ["Patient", " Patient", "Surgeon", "Physiotherapist ", "Nurse"]
PARTICIPANTS = ["P1", "P2", " P1", "P3", "7"]
TERM_NAMES = ["ITD", "ED", "impossible to do", "Moderately  Difficult", "odd term"]
FAULTS = [
    "number", "bool", "reversed", "width", "nonfinite", "scale",
    "empty", "reserved", "fields", "object", "duplicate", "underscore", "name", "digits",
]


# ways to write a CSV name field that tell the two CSV readers apart if either
# errs: quoted, with an embedded comma, newline, quote or carriage return; a
# lone carriage return (malformed); a NUL; characters str.splitlines would
# break a line at, which csv.reader keeps in the field
CSV_SPELLINGS = [
    '"{}"', '"{},x"', '"{}\n2"', '"{}""q"""', '"{}\r"', '{}\r', '{}\ry', '{}\0',
    'x\x0b{}', '{}\x0by', '{}\u2028', '\u2028{}', '{}\x1cy',
]


def _key(row):
    return row[0].strip(), row[1].strip(), canonical_term(row[2])


def _json_record(rec):
    if not isinstance(rec, list):  # a non-object record, or an object missing keys
        return rec
    return dict(zip(CSV_HEADER, rec if len(rec) == 5 else rec[:4]))


@st.composite
def survey_inputs(draw):
    """(format, text) of a survey whose rows are valid apart from up to two
    injected faults, with blank CSV rows sprinkled in and some CSV name
    fields written in one of CSV_SPELLINGS."""
    fmt = draw(st.sampled_from(["csv", "json"]))
    lattice = st.integers(0, 40).map(lambda k: k / 4)
    row = st.tuples(
        st.sampled_from(GROUP_NAMES), st.sampled_from(PARTICIPANTS),
        st.sampled_from(TERM_NAMES), lattice, lattice,
    ).map(lambda t: [t[0], t[1], t[2], min(t[3], t[4]), max(t[3], t[4])])
    rows = draw(st.lists(row, max_size=12, unique_by=_key))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2)) if rows else []
    records = [list(r) for r in rows]
    for fault in faults:
        i = draw(st.integers(0, len(records) - 1))
        rec = records[i]
        if not (isinstance(rec, list) and len(rec) == 5):  # already replaced by a fault
            continue
        if fault == "number":
            rec[3] = draw(st.sampled_from(["abc", "", None, 10**400, [1]]))
        elif fault == "bool":
            rec[4] = True if fmt == "json" else "true"
        elif fault == "reversed":
            rec[3], rec[4] = 6.0, 4.0
        elif fault == "width":
            rec[3], rec[4] = -1e308, 1e308
        elif fault == "nonfinite":
            rec[draw(st.sampled_from([3, 4]))] = draw(st.sampled_from(["inf", "nan", "-inf"]))
        elif fault == "scale":
            rec[3], rec[4] = 9.0, 11.0
        elif fault == "empty":
            rec[draw(st.integers(0, 2))] = " "
        elif fault == "reserved":
            rec[0] = draw(st.sampled_from(["ALL", " PS "]))
        elif fault == "fields":
            records[i] = draw(st.sampled_from([rec[:4], rec + ["x"], {"group": rec[0]}]))
        elif fault == "object":
            records[i] = draw(st.sampled_from([[1, 2], 5, "row"]))
        elif fault == "underscore":
            rec[draw(st.sampled_from([3, 4]))] = draw(st.sampled_from(["1_0", "0_5", "1_0.0"]))
        elif fault == "digits":  # non-ASCII digits float() would read
            rec[draw(st.sampled_from([3, 4]))] = draw(st.sampled_from(["\u0661", "\uff15.5"]))
        elif fault == "name":
            rec[draw(st.integers(0, 2))] = draw(st.sampled_from([{"a": 1}, None, ["P1"], True, 7]))
        elif fault == "duplicate":
            j = draw(st.integers(0, len(records) - 1))
            if isinstance(records[j], list) and len(records[j]) >= 3:
                records.insert(draw(st.integers(0, len(records))), records[j][:3] + [1.0, 2.0])
    if fmt == "json":
        return fmt, json.dumps([_json_record(rec) for rec in records])
    lines = [",".join(CSV_HEADER)]
    for rec in records:
        if not isinstance(rec, list):
            rec = ["Patient", "P9", "ED", rec]
        fields = ["" if v is None else str(v) for v in rec]
        if len(fields) >= 3 and draw(st.integers(0, 7)) == 0:
            k = draw(st.integers(0, 2))
            fields[k] = draw(st.sampled_from(CSV_SPELLINGS)).format(fields[k])
        lines.append(",".join(fields))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", " ", " , , , , ", ",,"])))
    return fmt, "\n".join(lines) + "\n"


def _outcome(load):
    try:
        return load()
    except AgreementError as exc:
        return type(exc), str(exc), exc.line


@given(survey_inputs())
@settings(max_examples=400)
def test_columnar_loader_matches_per_row_loader(case):
    _assert_loads_as_oracle(*case)


@pytest.mark.parametrize("rows", [1, 3])
@given(case=survey_inputs())
@settings(max_examples=200)
def test_columnar_loader_matches_per_row_loader_in_small_blocks(rows, case):
    with patch.object(survey, "TEXT_LINES", rows):
        _assert_loads_as_oracle(*case)


def _assert_loads_as_oracle(fmt, text):
    got = _outcome(lambda: load_survey(StringIO(text), format=fmt))
    want = _outcome(lambda: oracle_load_survey(text, fmt))
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want and type(got[2]) is type(want[2])
        return
    assert got.records == want
    assert got.groups == tuple(dict.fromkeys(r.group for r in want))
    present = dict.fromkeys(r.term for r in want)
    assert got.terms == (
        *(t for t in TERM_ORDER if t in present), *(t for t in present if t not in TERM_ORDER)
    )
    for group in (*got.groups, "PS", "ALL"):
        for term in got.terms:
            coll = _outcome(lambda: group_collection(got, group, term))
            expected = _filtered_collection(got, group, term)
            if not expected:
                no_ps = group == "PS" and not {"Physiotherapist", "Surgeon"} & set(got.groups)
                assert coll[0] is (UnknownGroup if no_ps else TooFewSources)
                continue
            ls, rs = coll.endpoints()
            assert np.array_equal(ls, [iv.l for iv in expected])
            assert np.array_equal(rs, [iv.r for iv in expected])


@pytest.mark.parametrize(
    "rows,error,line",
    [
        (["Patient,P01,ITD,4,2", "Patient,P02,ITD,0"], InvalidInterval, 2),
        (["Patient,P02,ITD,0", "Patient,P01,ITD,4,2"], ParseError, 2),
        (["Patient,P01,ITD,0,1", "Patient,P01,ITD,0,1", "Patient,P02,ITD,0"], ParseError, 4),
        (["Patient,P01,ITD,0,1", "", " , , , , ", "Patient,P01,ITD,0,2"], ParseError, 5),
        ([" , , , , ", "Patient,P01,ITD,0,1", "Patient,P02,ITD,6,4"], InvalidInterval, 4),
        (["Patient,P01,ITD,0,1", "Patient,P02,ITD,1,2", "Patient,P03,ITD,9,11"], RangeError, 4),
        ([" , , , , ", "Patient,P01,ITD,0,1", "Patient,P02,ITD,0,1", "Patient,P01,ITD,0,2"],
         ParseError, 5),
        (["Surgeon,P01,ITD,0,1", "Patient,P01,ITD,0,1", "Patient,P01,ITD,0,2",
          "Surgeon,P01,ITD,0,2"], ParseError, 4),
        ([{"group": "Patient", "participant_id": "P01", "term": "ITD", "l": 0, "r": 1},
          {"group": "Patient", "participant_id": "P02", "term": "ITD", "l": 0, "r": None}],
         ParseError, 2),
    ],
    ids=["reversed-before-short-row", "short-row-before-reversed",
         "duplicate-after-every-row-validates", "blank-rows-keep-line-numbers",
         "blank-row-then-bad-last-row", "bad-last-row", "duplicate-after-a-row-of-blanks",
         "first-of-two-duplicates", "bad-last-json-record"],
)
def test_first_error_in_line_order_wins(rows, error, line):
    if isinstance(rows[0], dict):
        fmt, text = "json", json.dumps(rows)
    else:
        fmt, text = "csv", "group,participant_id,term,l,r\n" + "\n".join(rows) + "\n"
    with pytest.raises(error) as info:
        load_survey(StringIO(text), format=fmt)
    assert info.value.line == line
    assert (type(info.value), str(info.value)) == _outcome(lambda: oracle_load_survey(text, fmt))[:2]


# ------------------------------------------------- rows across load blocks

def _in_blocks(monkeypatch, rows, size=2, fmt="csv"):
    """The survey of ``rows`` loaded ``size`` rows per block, and the per-row
    loader's outcome on it."""
    text = HEADER + "".join(row + "\n" for row in rows) if fmt == "csv" else json.dumps(rows)
    monkeypatch.setattr(survey, "TEXT_LINES", size)
    got = _outcome(lambda: load_survey(StringIO(text), format=fmt))
    return got, _outcome(lambda: oracle_load_survey(text, fmt))


def test_group_first_seen_in_a_later_block(monkeypatch):
    ds, want = _in_blocks(monkeypatch, ["Patient,P01,ITD,0,1", "Patient,P02,ITD,1,2",
                                        " Surgeon ,S01,ITD,2,3", "Patient,P03,ED,1,2",
                                        "Surgeon,P01,ITD,0,2"])
    assert ds.records == want
    assert (ds.groups, ds.group_codes.tolist()) == (("Patient", "Surgeon"), [0, 0, 1, 0, 1])
    assert (ds.participant_ids, ds.participant_codes.tolist()) == (
        ("P01", "P02", "S01", "P03"), [0, 1, 2, 3, 0])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_alias_in_a_later_block_gets_the_codes_term(monkeypatch, fmt):
    rows = [["Patient", "P01", "ED", 0, 1], ["Patient", "P02", "MD", 1, 2],
            ["Patient", "P03", "extremely  Difficult", 2, 3]]
    if fmt == "csv":
        rows = [",".join(map(str, row)) for row in rows]
    else:
        rows = [dict(zip(CSV_HEADER, row)) for row in rows]
    ds, want = _in_blocks(monkeypatch, rows, fmt=fmt)
    assert ds.records == want
    assert (ds.term_names, ds.term_codes.tolist()) == (("ED", "MD"), [0, 1, 0])


@pytest.mark.parametrize("size", [1, 2, 3])
def test_duplicate_of_a_row_in_an_earlier_block_names_its_line(monkeypatch, size):
    rows = ["Patient,P01,ITD,0,1", "Patient,P02,ITD,1,2", "Patient,P03,ITD,1,2",
            " Patient , P01 ,impossible to do,2,3"]
    got, want = _in_blocks(monkeypatch, rows, size)
    assert got == want == (ParseError, "line 5: duplicate response for ('Patient', 'P01', "
                           "'ITD') (first seen at line 2)", 5)
    assert type(got[2]) is int


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("blank", [" , , , , ", ",,", ""])
def test_blank_or_comma_short_row_at_a_block_edge(monkeypatch, size, blank):
    rows = ["Patient,P01,ITD,0,1", blank, blank, "Patient,P02,ITD,1,2"]
    ds, want = _in_blocks(monkeypatch, rows, size)
    assert ds.records == want
    got, want = _in_blocks(monkeypatch, rows + ["Patient,P01,ITD,0,2"], size)
    assert got == want and got[2] == 6 and "first seen at line 2" in got[1]
    got, want = _in_blocks(monkeypatch, rows + ["Patient,P03,ITD,4,2"], size)
    assert got == want and got[:1] + got[2:] == (InvalidInterval, 6)


@pytest.mark.parametrize("endpoint", ["1_0", "\u0661", "\uff15.5"])
def test_endpoint_text_not_plain_only_in_a_later_block(monkeypatch, endpoint):
    rows = ["Patient,P01,ITD,0,1", "Patient,P02,ITD,1,2", f"Patient,P03,ITD,0,{endpoint}"]
    got, want = _in_blocks(monkeypatch, rows)
    assert got[0] is ParseError and got[2] == 4 and got == want
    ds, want = _in_blocks(monkeypatch, rows[:2] + ["P\u00e2tient,P03,ITD,0,1"])
    assert ds.records == want  # a name that is not ASCII is no endpoint


def test_late_malformed_line_beats_an_early_reversed_interval(monkeypatch):
    field = "G" * (csv.field_size_limit() + 1)
    rows = ['"Patient","P01","ITD",6,4', '"Patient","P02","ITD",0,1', '"Patient","P03","ITD",0,1',
            f'"{field}","P04","ITD",0,1']
    got, want = _in_blocks(monkeypatch, rows, 1)
    assert got[0] is ParseError and "malformed CSV" in got[1] and got[2] == 5
    assert got == want
    got, want = _in_blocks(monkeypatch, rows[:3], 1)
    assert got == want and got[:1] + got[2:] == (InvalidInterval, 2)


def test_one_row_validator_runs_only_on_the_bad_row(monkeypatch):
    calls = []
    validate = survey._validate_record

    def counted(*args, **kwargs):
        calls.append(kwargs["line"])
        return validate(*args, **kwargs)

    monkeypatch.setattr(survey, "_validate_record", counted)
    text = ("group,participant_id,term,l,r\n , , , , \nPatient,P01,ITD,0,1\n\n,,\n"
            "Patient,P02,ITD,1,2\n , , , , \n")
    ds = load_survey(StringIO(text))
    assert calls == []
    assert ds.records == oracle_load_survey(text)
    assert (ds.groups, ds.participant_ids, ds.terms) == (("Patient",), ("P01", "P02"), ("ITD",))
    with pytest.raises(InvalidInterval) as info:
        load_survey(StringIO(text + "Patient,P03,ITD,4,2\n"))
    assert calls == [info.value.line] == [8]


def test_blank_rows_skipped():
    text = "group,participant_id,term,l,r\nPatient,P01,ITD,0,1\n , , , , \n\nPatient,P02,ITD,1,2\n"
    ds = load_survey(StringIO(text))
    assert ds.records == oracle_load_survey(text)
    assert group_collection(ds, "ALL", "ITD").intervals == (Interval(0, 1), Interval(1, 2))


def test_dataset_columns_are_read_only(ds):
    for column in (ds.l, ds.r, ds.group_codes, ds.term_codes, ds.participant_codes):
        with pytest.raises(ValueError):
            column[0] = 0
