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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .agreement import GammaBreakdown, gamma_alpha, gamma_exact
from .errors import (
    InvalidInterval,
    ParseError,
    RangeError,
    TooFewSources,
    UnknownGroup,
    UnknownTerm,
)
from .fuzzyset import DEFAULT_SAMPLES, attributes
from .iaa import build_iaa
from .intervals import Interval, IntervalCollection, make_interval

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
    """Validated responses plus the scale they were collected on.

    ``groups``, ``terms`` and the cell index behind ``group_collection`` are
    built on first use, in one pass over the records.
    """

    scale: Interval
    records: tuple[SurveyRecord, ...]

    @cached_property
    def _index(self) -> tuple[dict, dict]:
        """Intervals per (group, term) cell, and records per term, in record order."""
        cells: dict[tuple[str, str], list[Interval]] = {}
        by_term: dict[str, list[SurveyRecord]] = {}
        for rec in self.records:
            cells.setdefault((rec.group, rec.term), []).append(rec.interval)
            by_term.setdefault(rec.term, []).append(rec)
        return cells, by_term

    @cached_property
    def groups(self) -> tuple[str, ...]:
        """Stored groups in first-appearance order."""
        return tuple(dict.fromkeys(group for group, _ in self._index[0]))

    @cached_property
    def terms(self) -> tuple[str, ...]:
        """Canonical questionnaire terms first, then extras as they appear."""
        present = self._index[1]
        return (
            *(t for t in TERM_ORDER if t in present),
            *(t for t in present if t not in TERM_ORDER),
        )


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
    try:
        if isinstance(l_raw, bool) or isinstance(r_raw, bool):
            raise TypeError("a JSON boolean is not an endpoint")
        l, r = float(l_raw), float(r_raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"endpoints must be numbers, got ({l_raw!r}, {r_raw!r})", line=line)
    try:
        interval = make_interval(l, r)
    except InvalidInterval as exc:
        raise InvalidInterval(str(exc), line=line) from exc
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


def _read_text(source) -> str:
    """Whole input as text, without a leading UTF-8 byte-order mark."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_text(encoding="utf-8")
    else:
        data = source.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.removeprefix("\ufeff")


def load_survey(source, format: str = "csv", scale: Interval = DEFAULT_SCALE) -> SurveyDataset:
    """Parse and validate survey responses from a path or open stream.

    CSV needs the exact header ``group,participant_id,term,l,r``; JSON is an
    array of objects with the same keys. Every error carries the offending
    line (CSV) or record number (JSON). A participant may answer each
    (group, term) cell at most once.
    """
    text = _read_text(source)
    if format == "csv":
        numbered = _parse_csv(text, scale)
    elif format == "json":
        numbered = _parse_json(text, scale)
    else:
        raise ValueError(f"format must be csv or json, got {format!r}")
    _check_duplicates(numbered)
    return SurveyDataset(scale=scale, records=tuple(rec for rec, _ in numbered))


def _parse_csv(text: str, scale: Interval) -> list[tuple[SurveyRecord, int]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input; expected header " + ",".join(CSV_HEADER))
    if [h.strip().lower() for h in header] != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
        )
    out = []
    for row in reader:
        line = reader.line_num
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 5:
            raise ParseError(f"expected 5 fields, got {len(row)}", line=line)
        out.append((_validate_record(*row, scale=scale, line=line), line))
    return out


def _parse_json(text: str, scale: Interval) -> list[tuple[SurveyRecord, int]]:
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal too long to convert
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(payload, list):
        raise ParseError("top-level JSON value must be an array of records")
    out = []
    for i, obj in enumerate(payload, start=1):
        if not isinstance(obj, dict):
            raise ParseError("record must be an object", line=i)
        missing = [k for k in CSV_HEADER if k not in obj]
        if missing:
            raise ParseError(f"missing keys: {', '.join(missing)}", line=i)
        rec = _validate_record(
            str(obj["group"]), str(obj["participant_id"]), str(obj["term"]),
            obj["l"], obj["r"], scale=scale, line=i,
        )
        out.append((rec, i))
    return out


def group_collection(ds: SurveyDataset, group: str, term: str) -> IntervalCollection:
    """Intervals of one (group, term) cell, in record order.

    "PS" pools the professional groups (Physiotherapist + Surgeon); "ALL"
    pools every stored group.
    """
    term = canonical_term(term)
    if term not in ds.terms:
        raise UnknownTerm(f"term {term!r} not in dataset (has {', '.join(ds.terms)})")
    stored = ds.groups
    cells, by_term = ds._index
    if group == "ALL":
        matched = [r.interval for r in by_term[term]]
    elif group == "PS":
        wanted = {g for g in stored if g in PROFESSIONAL_GROUPS}
        if not wanted:
            raise UnknownGroup("no professional groups (Physiotherapist/Surgeon) in dataset")
        matched = [r.interval for r in by_term[term] if r.group in wanted]
    elif group in stored:
        matched = cells.get((group, term))
    else:
        raise UnknownGroup(f"group {group!r} not in dataset (has {', '.join(stored)})")
    if not matched:
        raise TooFewSources(f"no responses for group {group!r}, term {term!r}")
    return IntervalCollection(matched)


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


def _cell_gamma(coll, fs, mode: str, alpha_cuts: int, samples: int) -> GammaBreakdown:
    if mode == "exact":
        return gamma_exact(coll)
    if mode == "alpha":
        return gamma_alpha(fs, cuts=alpha_cuts, samples=samples)
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
            breakdown = _cell_gamma(coll, fs, mode, alpha_cuts, samples)
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
