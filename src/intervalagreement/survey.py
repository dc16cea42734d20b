"""Interval-valued survey ingestion and per-group agreement reporting.

Input is one row per response: stakeholder group, participant id, linguistic
term, and the interval endpoints, all constrained to a declared scale.
Reports aggregate each (group, term) cell into a fuzzy set and tabulate its
attributes next to the agreement ratio, with a synthetic "ALL" group over
every response and a "PS" group pooling the professional groups on demand.
"""

from __future__ import annotations

import csv
import io
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .agreement import GammaBreakdown, gamma_alpha, gamma_exact
from .errors import (
    ParseError,
    RangeError,
    TooFewSources,
    UnknownGroup,
    UnknownTerm,
)
from .fuzzyset import DEFAULT_SAMPLES, attributes
from .iaa import build_iaa
from .intervals import Interval, IntervalCollection, endpoint_arrays, plain, read_interval

CSV_HEADER = ["group", "participant_id", "term", "l", "r"]
DEFAULT_SCALE = Interval(0.0, 10.0)

# questionnaire order of the canonical difficulty terms, hardest first
TERM_ORDER = ["ITD", "ED", "MD", "ALBD", "NAAD"]
TERM_ALIASES = {
    "impossible to do": "ITD",
    "extremely difficult": "ED",
    "moderately difficult": "MD",
    "a little bit difficult": "ALBD",
    "not at all difficult": "NAAD",
}

PROFESSIONAL_GROUPS = ("Physiotherapist", "Surgeon")
DERIVED_GROUPS = ("PS", "ALL")


def canonical_term(term: str) -> str:
    """Map full-name aliases onto the canonical short codes."""
    cleaned = " ".join(term.strip().split())
    return TERM_ALIASES.get(cleaned.lower(), cleaned)


@dataclass(frozen=True)
class SurveyRecord:
    group: str
    participant_id: str
    term: str
    interval: Interval


@dataclass(frozen=True, eq=False)
class SurveyDataset:
    """Validated responses, stored as columns, plus the scale they were
    collected on.

    Each text column is held as its distinct values in first-appearance order
    plus one code per response; endpoints are read-only float arrays.
    ``records`` builds the ``SurveyRecord`` tuple on first read, and the cell
    index behind ``group_collection`` is built once, on first use.
    """

    scale: Interval
    groups: tuple[str, ...]  # stored groups in first-appearance order
    group_codes: np.ndarray
    participant_ids: tuple[str, ...]
    participant_codes: np.ndarray
    term_names: tuple[str, ...]  # canonical terms in first-appearance order
    term_codes: np.ndarray
    l: np.ndarray
    r: np.ndarray

    @cached_property
    def records(self) -> tuple[SurveyRecord, ...]:
        """One record per response, in response order."""
        return tuple(
            map(
                SurveyRecord,
                map(self.groups.__getitem__, self.group_codes.tolist()),
                map(self.participant_ids.__getitem__, self.participant_codes.tolist()),
                map(self.term_names.__getitem__, self.term_codes.tolist()),
                map(Interval, self.l.tolist(), self.r.tolist()),
            )
        )

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """Canonical questionnaire terms first, then extras as they appear."""
        present = self.term_names
        return (
            *(t for t in TERM_ORDER if t in present),
            *(t for t in present if t not in TERM_ORDER),
        )

    @cached_property
    def _index(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Response numbers grouped by (group, term) cell and by term, each
        group in response order, with the bounds of every group."""
        nt = len(self.term_names)
        cells = self.group_codes * nt + self.term_codes
        return _grouped(cells, len(self.groups) * nt), _grouped(self.term_codes, nt)

    def _term_rows(self, term: str) -> np.ndarray:
        order, bounds = self._index[1]
        t = self.term_names.index(term)
        return order[bounds[t]:bounds[t + 1]]

    def _cell_rows(self, group: str, term: str) -> np.ndarray:
        order, bounds = self._index[0]
        k = self.groups.index(group) * len(self.term_names) + self.term_names.index(term)
        return order[bounds[k]:bounds[k + 1]]


def _grouped(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions sorted stably by code, and the bounds of each code's run."""
    bounds = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=size), out=bounds[1:])
    return np.argsort(codes, kind="stable"), bounds


def _validate_record(
    group: str, participant_id: str, term: str, l_raw, r_raw, scale: Interval, line: int
) -> SurveyRecord:
    group = group.strip()
    participant_id = participant_id.strip()
    term = canonical_term(str(term))
    if not group or not participant_id or not term:
        raise ParseError("group, participant_id and term must be non-empty", line=line)
    if group in DERIVED_GROUPS:
        raise ParseError(f"group name {group!r} is reserved for derived groups", line=line)
    interval = read_interval(l_raw, r_raw, line, (l_raw, r_raw))
    if interval.l < scale.l or interval.r > scale.r:
        raise RangeError(
            f"interval [{interval.l}, {interval.r}] outside scale [{scale.l}, {scale.r}]",
            line=line,
        )
    return SurveyRecord(group, participant_id, term, interval)


def _check_duplicates(records: Iterable[tuple[SurveyRecord, int]]):
    seen: dict[tuple[str, str, str], int] = {}
    for rec, line in records:
        key = (rec.group, rec.participant_id, rec.term)
        if key in seen:
            raise ParseError(
                f"duplicate response for {key} (first seen at line {seen[key]})", line=line
            )
        seen[key] = line


def _decode(data: bytes) -> str:
    """UTF-8 text of raw input; invalid bytes raise ParseError at their line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"input is not valid UTF-8: {exc.reason} at byte {exc.start}", line=line)


def read_text(source) -> str:
    """The whole input of a path or open stream as text, without a leading
    UTF-8 byte-order mark.

    A path or a binary stream is decoded as UTF-8 and read with universal
    newlines, as text-mode reading gives it; a text stream is read as is.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            data = fh.read()
    else:
        data = source.read()
    if isinstance(data, bytes):
        data = _decode(data).replace("\r\n", "\n").replace("\r", "\n")
    return data.removeprefix("\ufeff")


def load_survey(source, format: str = "csv", scale: Interval = DEFAULT_SCALE) -> SurveyDataset:
    """Parse and validate survey responses from a path or open stream.

    CSV needs the exact header ``group,participant_id,term,l,r``; JSON is an
    array of objects with the same keys. Every error carries the offending
    line (CSV) or record number (JSON). A participant may answer each
    (group, term) cell at most once.

    The five fields are collected and checked a column at a time: names are
    cleaned once per distinct value and endpoints converted with builtin
    ``float``. When any check fails, the per-row validation runs instead and
    raises the first error in line order, with the same message and
    ``.line``; duplicates are reported only once every row is valid.
    """
    text = read_text(source)
    if format == "csv":
        rows, lines = _csv_rows(text)
        columns = _columns(rows)
        # endpoints that are not plain are left to the per-row check
        if columns and not plain(text.partition("\n")[2]):
            if not plain("".join(columns[3] + columns[4])):
                columns = None
        per_row = _csv_records(rows, lines, scale)
    elif format == "json":
        rows = _json_rows(text)
        columns = _json_columns(rows)
        per_row = _json_records(rows, scale)
    else:
        raise ValueError(f"format must be csv or json, got {format!r}")
    ds = None if columns is None else _dataset(columns, scale)
    if ds is None:
        numbered = list(per_row)
        _check_duplicates(numbered)
        valid = [(r.group, r.participant_id, r.term, r.interval.l, r.interval.r) for r, _ in numbered]
        ds = _dataset(_columns(valid), scale)
    return ds


def _csv_rows(text: str) -> tuple[list[list[str]], list[int]]:
    """Every non-blank row after the header, with its line number."""
    reader = csv.reader(io.StringIO(text))
    rows, lines = [], []
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input; expected header " + ",".join(CSV_HEADER))
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise ParseError(
                f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
            )
        for row in reader:
            # a 5-field row of blanks is kept here and skipped by the per-row path
            if len(row) == 5 or any(cell.strip() for cell in row):
                rows.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:  # a field over the size limit, or a stray carriage return
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    return rows, lines


def _columns(rows) -> list | None:
    """The five columns of the rows, or None unless every row has five fields."""
    if {*map(len, rows)} - {5}:
        return None
    return [list(map(operator.itemgetter(i), rows)) for i in range(5)]


def _csv_records(rows, lines, scale: Interval):
    """Per-row validation of the CSV rows, yielding (record, line)."""
    for row, line in zip(rows, lines):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", line=line)
        yield _validate_record(*row, scale=scale, line=line), line


def _json_rows(text: str) -> list:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too-long integer, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise ParseError("top-level JSON value must be an array of records")
    return payload


def _json_columns(payload: list) -> list | None:
    """The five columns, names as ``str``, or None unless every record is an
    object with every key, string or number names and number endpoints."""
    try:
        columns = [list(map(operator.itemgetter(key), payload)) for key in CSV_HEADER]
    except (TypeError, KeyError):
        return None
    names, ends = {*map(type, chain(*columns[:3]))}, {*map(type, chain(*columns[3:]))}
    if not (names <= {str, int, float} and ends <= {int, float}):
        return None
    return [*(list(map(str, col)) for col in columns[:3]), *columns[3:]]


_JSON_KINDS = {dict: "an object", list: "an array", bool: "a boolean", type(None): "null"}


def _json_records(payload: list, scale: Interval):
    """Per-record validation of the JSON array, yielding (record, number)."""
    for i, obj in enumerate(payload, start=1):
        if not isinstance(obj, dict):
            raise ParseError("record must be an object", line=i)
        missing = [k for k in CSV_HEADER if k not in obj]
        if missing:
            raise ParseError(f"missing keys: {', '.join(missing)}", line=i)
        for key in CSV_HEADER[:3]:
            if type(obj[key]) in _JSON_KINDS:
                kind = _JSON_KINDS[type(obj[key])]
                raise ParseError(f"{key} must be a string or a number, not {kind}", line=i)
        rec = _validate_record(
            str(obj["group"]), str(obj["participant_id"]), str(obj["term"]),
            obj["l"], obj["r"], scale=scale, line=i,
        )
        yield rec, i


def _encode(column, clean) -> tuple[tuple, np.ndarray]:
    """Distinct cleaned values in first-appearance order, and each row's
    index into them; ``clean`` runs once per distinct raw value."""
    names: dict = {}
    code = {raw: names.setdefault(clean(raw), len(names)) for raw in dict.fromkeys(column)}
    return tuple(names), np.fromiter(map(code.__getitem__, column), np.intp, len(column))


def _repeats(cells: np.ndarray, pids: np.ndarray) -> bool:
    """Whether any participant answers one (group, term) cell twice."""
    order = np.lexsort((pids, cells))
    cells, pids = cells[order], pids[order]
    return bool(((cells[1:] == cells[:-1]) & (pids[1:] == pids[:-1])).any())


def _dataset(columns, scale: Interval) -> SurveyDataset | None:
    """The dataset over five raw columns, or None when any value fails a check."""
    group_raw, pid_raw, term_raw, l_raw, r_raw = columns
    groups, group_codes = _encode(group_raw, str.strip)
    pids, pid_codes = _encode(pid_raw, str.strip)
    terms, term_codes = _encode(term_raw, canonical_term)
    if "" in groups or "" in pids or "" in terms or any(g in groups for g in DERIVED_GROUPS):
        return None
    ends = endpoint_arrays(l_raw, r_raw)
    if ends is None:
        return None
    ls, rs = ends
    if not ((ls >= scale.l) & (rs <= scale.r)).all():
        return None
    if _repeats(group_codes * len(terms) + term_codes, pid_codes):
        return None
    for arr in (group_codes, pid_codes, term_codes, ls, rs):
        arr.flags.writeable = False
    return SurveyDataset(scale, groups, group_codes, pids, pid_codes, terms, term_codes, ls, rs)


def group_collection(ds: SurveyDataset, group: str, term: str) -> IntervalCollection:
    """Intervals of one (group, term) cell, in response order.

    "PS" pools the professional groups (Physiotherapist + Surgeon); "ALL"
    pools every stored group. The endpoints are sliced from the dataset's
    columns through its cell index.
    """
    term = canonical_term(term)
    if term not in ds.terms:
        raise UnknownTerm(f"term {term!r} not in dataset (has {', '.join(ds.terms)})")
    stored = ds.groups
    if group == "ALL":
        rows = ds._term_rows(term)
    elif group == "PS":
        wanted = [i for i, g in enumerate(stored) if g in PROFESSIONAL_GROUPS]
        if not wanted:
            raise UnknownGroup("no professional groups (Physiotherapist/Surgeon) in dataset")
        rows = ds._term_rows(term)
        rows = rows[np.isin(ds.group_codes[rows], wanted)]
    elif group in stored:
        rows = ds._cell_rows(group, term)
    else:
        raise UnknownGroup(f"group {group!r} not in dataset (has {', '.join(stored)})")
    if not rows.size:
        raise TooFewSources(f"no responses for group {group!r}, term {term!r}")
    return IntervalCollection._from_arrays(ds.l[rows], ds.r[rows])


@dataclass(frozen=True)
class ReportRow:
    group: str
    term: str
    height: float
    centroid: float
    gamma: float
    support_length: float
    core_length: float
    n: int


@dataclass(frozen=True)
class AgreementReport:
    """One row per (group, term) cell with at least two responses."""

    rows: tuple[ReportRow, ...]
    skipped: tuple[tuple[str, str, str], ...] = ()


def cell_gamma(coll: IntervalCollection, mode: str, alpha_cuts: int) -> GammaBreakdown:
    """γ of a collection, exact or from ``alpha_cuts`` α-cuts of its agreement set."""
    if mode == "exact":
        return gamma_exact(coll)
    if mode == "alpha":
        return gamma_alpha(build_iaa(coll), cuts=alpha_cuts)
    raise ValueError(f"mode must be exact or alpha, got {mode!r}")


def report(
    ds: SurveyDataset,
    mode: str = "exact",
    alpha_cuts: int = 10,
    samples: int = DEFAULT_SAMPLES,
) -> AgreementReport:
    """Tabulate attributes and agreement per cell, for each stored group and "ALL".

    Cells with fewer than two responses are skipped and listed in
    ``report.skipped`` so the run always completes.
    """
    rows = []
    skipped = []
    for group in (*ds.groups, "ALL"):
        for term in ds.terms:
            try:
                coll = group_collection(ds, group, term)
            except TooFewSources:
                skipped.append((group, term, "no responses"))
                continue
            if coll.n < 2:
                skipped.append((group, term, "fewer than 2 responses"))
                continue
            fs = build_iaa(coll)
            attrs = attributes(fs, samples=samples)
            breakdown = cell_gamma(coll, mode, alpha_cuts)
            rows.append(
                ReportRow(
                    group=group,
                    term=term,
                    height=attrs.height,
                    centroid=attrs.centroid,
                    gamma=breakdown.gamma,
                    support_length=attrs.support_length,
                    core_length=attrs.core_length,
                    n=coll.n,
                )
            )
    return AgreementReport(rows=tuple(rows), skipped=tuple(skipped))


def emit_series(
    ds: SurveyDataset, group: str, term: str, samples: int = DEFAULT_SAMPLES
) -> tuple[np.ndarray, np.ndarray]:
    """Membership series of one cell on an even grid across the whole scale."""
    coll = group_collection(ds, group, term)
    fs = build_iaa(coll)
    xs = np.linspace(ds.scale.l, ds.scale.r, samples)
    return xs, fs.membership(xs)


def _fmt(value) -> str:
    """Reals with 6 significant digits, locale-independent."""
    return format(float(value), ".6g")


def report_to_csv(rep: AgreementReport) -> str:
    """Five-column table: group, term, height, centroid, agreement ratio."""
    lines = ["group,term,height,centroid,agreement_ratio"]
    for row in rep.rows:
        lines.append(
            f"{row.group},{row.term},{_fmt(row.height)},{_fmt(row.centroid)},{_fmt(row.gamma)}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(rep: AgreementReport) -> str:
    """Full report rows, including support/core lengths and response counts."""
    payload = [
        {
            "group": row.group,
            "term": row.term,
            "height": float(_fmt(row.height)),
            "centroid": float(_fmt(row.centroid)),
            "agreement_ratio": float(_fmt(row.gamma)),
            "support_length": float(_fmt(row.support_length)),
            "core_length": float(_fmt(row.core_length)),
            "n": row.n,
        }
        for row in rep.rows
    ]
    return json.dumps(payload, indent=2) + "\n"


def series_to_csv(xs: np.ndarray, mus: np.ndarray) -> str:
    lines = ["x,mu"]
    lines.extend(f"{_fmt(x)},{_fmt(m)}" for x, m in zip(xs, mus))
    return "\n".join(lines) + "\n"


def series_to_json(xs: np.ndarray, mus: np.ndarray) -> str:
    pairs = [[float(_fmt(x)), float(_fmt(m))] for x, m in zip(xs, mus)]
    return json.dumps(pairs) + "\n"
