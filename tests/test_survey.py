import json
from io import BytesIO, StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalagreement import (
    AgreementError,
    Interval,
    InvalidInterval,
    ParseError,
    RangeError,
    TooFewSources,
    UnknownGroup,
    UnknownTerm,
    emit_series,
    gamma_exact,
    group_collection,
    load_survey,
    make_interval,
    report,
)
from intervalagreement.survey import (
    CSV_HEADER,
    TERM_ORDER,
    canonical_term,
    read_text,
    report_to_csv,
    report_to_json,
    series_to_csv,
    series_to_json,
)

from helpers import oracle_load_survey

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


def test_identical_cell_reports_gamma_one():
    text = (
        "group,participant_id,term,l,r\n"
        "Patient,P01,MD,4,6\n"
        "Patient,P02,MD,4,6\n"
    )
    rep = report(load_survey(StringIO(text)))
    assert all(r.gamma == 1.0 for r in rep.rows)


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


# ------------------------------------------------- columnar loader vs per-row

GROUP_NAMES = ["Patient", " Patient", "Surgeon", "Physiotherapist ", "Nurse"]
PARTICIPANTS = ["P1", "P2", " P1", "P3", "7"]
TERM_NAMES = ["ITD", "ED", "impossible to do", "Moderately  Difficult", "odd term"]
FAULTS = [
    "number", "bool", "reversed", "width", "nonfinite", "scale",
    "empty", "reserved", "fields", "object", "duplicate", "underscore", "name", "digits",
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
    injected faults, with blank CSV rows sprinkled in."""
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
        lines.append(",".join("" if v is None else str(v) for v in rec))
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
    fmt, text = case
    got = _outcome(lambda: load_survey(StringIO(text), format=fmt))
    want = _outcome(lambda: oracle_load_survey(text, fmt))
    if isinstance(want, tuple) and want and isinstance(want[0], type):
        assert got == want
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
    ],
    ids=["reversed-before-short-row", "short-row-before-reversed",
         "duplicate-after-every-row-validates", "blank-rows-keep-line-numbers"],
)
def test_first_error_in_line_order_wins(rows, error, line):
    text = "group,participant_id,term,l,r\n" + "\n".join(rows) + "\n"
    with pytest.raises(error) as info:
        load_survey(StringIO(text))
    assert info.value.line == line
    assert (type(info.value), str(info.value)) == _outcome(lambda: oracle_load_survey(text))[:2]


def test_blank_rows_skipped():
    text = "group,participant_id,term,l,r\nPatient,P01,ITD,0,1\n , , , , \n\nPatient,P02,ITD,1,2\n"
    ds = load_survey(StringIO(text))
    assert ds.records == oracle_load_survey(text)
    assert group_collection(ds, "ALL", "ITD").intervals == (Interval(0, 1), Interval(1, 2))


def test_dataset_columns_are_read_only(ds):
    for column in (ds.l, ds.r, ds.group_codes, ds.term_codes, ds.participant_codes):
        with pytest.raises(ValueError):
            column[0] = 0
