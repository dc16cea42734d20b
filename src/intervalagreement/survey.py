"""Interval-valued survey and interval-list ingestion, and per-group agreement reporting.

Input is one row per response: stakeholder group, participant id, linguistic
term, and the interval endpoints, all constrained to a declared scale.
Reports aggregate each (group, term) cell into a fuzzy set and tabulate its
attributes next to the agreement ratio, with a synthetic "ALL" group over
every response and a "PS" group pooling the professional groups on demand.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .agreement import (DEFAULT_CUTS, EMPTY_CUT, NO_WIDTH, GammaBreakdown, _check_cuts,
                        gamma_alpha, gamma_exact, gamma_sums)
from .errors import (
    EmptySet,
    EmptySupport,
    ParseError,
    RangeError,
    TooFewSources,
    UnknownGroup,
    UnknownTerm,
)
from .fuzzyset import (DEFAULT_SAMPLES, GRID_CHUNK, STEP_POINTS_PER_BREAKPOINT, ZERO_MEMBERSHIP,
                       MembershipFunction, _check_samples, _first_reaching, linspace_at, step_at,
                       step_table, walk_linspace)
from .iaa import build_iaa
from .intervals import (
    Interval,
    IntervalCollection,
    coverage_cells,
    endpoint_arrays,
    level_runs,
    ordered,
    plain,
    ranges,
    read_interval,
    run_sums,
)

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
    index (a span per (term, group) cell; "ALL" is a term's span) on first use.
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
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """Response numbers sorted stably by (term, group) cell, and the cells'
        bounds: cell t * groups + g holds group g's answers to term t, so term
        t's "ALL" cell is the span of its cells t * groups to (t + 1) * groups."""
        cells = self.term_codes * len(self.groups)
        cells += self.group_codes
        bounds = np.zeros(len(self.term_names) * len(self.groups) + 1, dtype=np.intp)
        np.cumsum(np.bincount(cells, minlength=bounds.size - 1), out=bounds[1:])
        return np.argsort(cells, kind="stable"), bounds

    def _rows(self, groups, term: str) -> np.ndarray:
        """The responses of stored group numbers ``groups`` to ``term``, in response order."""
        order, bounds = self._index
        k = self.term_names.index(term) * len(self.groups) + np.asarray(groups, dtype=np.intp)
        return np.sort(order[ranges(bounds[k], bounds[k + 1])])


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

    CSV text without a quote, carriage return, NUL or line longer than
    ``csv.field_size_limit()`` is sliced from its UTF-8 bytes TEXT_LINES lines
    at a time, and a block is split by ``_split_block`` only when it is reached.
    Other text is read whole by ``csv.reader``, and JSON whole, so there a
    malformed line raises before a bad value on an earlier one. Either way the
    rows, errors and lines are those ``csv.reader`` gives.

    ``_dataset`` checks, encodes and converts a block a column at a time:
    names present and not reserved, endpoints plain, finite, ordered and in
    the scale. A load holds O(TEXT_LINES) Python objects and O(rows) arrays.
    Only failing rows, and rows whose endpoint text is not plain, go to the
    one-row validator in line order: the first bad one raises its own message
    and ``.line``, and all-blank CSV rows are skipped. Then the first repeated
    response in line order raises, naming the line it repeats.
    """
    text = read_text(source)
    if format == "csv":
        blocks, lines = _csv_blocks(text)
        del text  # text split directly is read from its UTF-8 bytes from here on
        return _dataset(blocks, _csv_record, lines, scale)
    if format == "json":
        payload = _json_rows(text)
        return _dataset(map(_json_block, _blocks(payload)), _json_record,
                        range(1, len(payload) + 1), scale)
    raise ValueError(f"format must be csv or json, got {format!r}")


# lines of text split, survey rows checked, encoded and converted, or lines printed, per step
TEXT_LINES = 1 << 12


def _blocks(rows):
    """``rows`` TEXT_LINES at a time."""
    return (rows[a:a + TEXT_LINES] for a in range(0, len(rows), TEXT_LINES))


def _csv_blocks(text: str):
    """The rows after the header, TEXT_LINES at a time, and each row's line
    number. A block is its five columns (a row of another length reads as five
    blanks), whether each row's endpoint text is ``plain`` (True: all of them),
    and a function giving its row j's fields."""
    if text and not any(map(text.__contains__, '"\r\0')):
        data = text.encode("utf-8", "surrogatepass")  # in UTF-8, "\n" and "," are one byte each
        ends = _line_ends(data, len(data) - data.endswith(b"\n"))
        if np.diff(ends).max() <= csv.field_size_limit() + 1:
            _check_header(data[:ends[1]].decode("utf-8", "surrogatepass").split(","))
            return ((_split_block(data, ends[a:a + TEXT_LINES + 1])
                     for a in range(1, ends.size - 1, TEXT_LINES)), range(2, ends.size))
    reader = csv.reader(io.StringIO(text))
    rows, lines = [], []
    try:
        _check_header(next(reader, None))
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num)
    except csv.Error as exc:  # a field over the size limit, or a stray carriage return
        raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
    return map(_reader_block, _blocks(rows)), lines


def _line_ends(data: bytes, size: int) -> np.ndarray:
    """-1, then where each line of ``data[:size]`` ends: at its "\n", or at ``size``."""
    return np.concatenate([[-1], np.flatnonzero(np.frombuffer(data, np.uint8, size) == 10), [size]])


def _split_block(data: bytes, ends: np.ndarray):
    """The survey lines of ``data`` that end at ``ends[1:]``, sliced and split on
    their own into five columns; a line without four commas reads as blanks and
    is split when asked for."""
    lo, hi = ends[0] + 1, ends[-1]
    lines = data[lo:hi].decode("utf-8", "surrogatepass")
    commas = np.flatnonzero(np.frombuffer(data, np.uint8, hi - lo, lo) == 44)
    bad = np.diff(np.searchsorted(commas, ends - lo)) != 4
    if bad.any():
        raw = lines.split("\n")
        lines = "\n".join([",,,," if b else line for line, b in zip(raw, bad.tolist())])
    fields = lines.replace("\n", ",").split(",")
    columns = [fields[i::5] for i in range(5)]
    row = (lambda j: raw[j].split(",")) if bad.any() else (lambda j: [c[j] for c in columns])
    return columns, plain(lines) or _plain_rows(columns), row


def parse_interval_lines(text: str) -> IntervalCollection:
    """One interval per line as ``l,r``; blank lines and ``#`` comments are
    ignored, and every ``str.splitlines`` boundary ends a line. numpy's C line
    reader reads each block of TEXT_LINES lines, parsing a number as builtin
    ``float`` does; it refuses what the one-line rule refuses and a line of
    blanks, so a refused block is read again with its field-less lines emptied.
    A block refused twice, or with a pair that fails ``ordered``, is read a line
    at a time in line order: a blank one is dropped, the first bad one raises."""
    if any(map(text.__contains__, "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")):
        text = "\n".join(text.splitlines())
    data = text.encode("utf-8", "surrogatepass")
    ends = _line_ends(data, len(data) - data.endswith(b"\n"))
    ls, rs, kept = np.empty(ends.size - 1), np.empty(ends.size - 1), np.ones(ends.size - 1, bool)
    for a in range(0, kept.size, TEXT_LINES):
        at = ends[a:a + TEXT_LINES + 1]
        lines = data[at[0] + 1:at[-1]].decode("utf-8", "surrogatepass")
        pairs = _read_lines(lines)
        if pairs is None:  # the reader refuses a line of blanks, with or without a comment
            pairs = _read_lines(re.sub(r"(?m)^[^\S\n]*(?:#.*)?$", "", lines))
        if pairs is not None and pairs.shape[1] == 2 and ordered(*pairs.T).all():
            ls[a:a + len(pairs)], rs[a:a + len(pairs)] = pairs.T  # its other lines were blank
            kept[a + len(pairs):a + at.size - 1] = False
            continue
        for k, raw in enumerate(lines.split("\n"), a):
            parts = [part.strip() for part in raw.split("#", 1)[0].split(",")]
            kept[k] = parts != [""]  # a blank or comment-only line is dropped
            if len(parts) == 2:
                iv = read_interval(*parts, k + 1, raw)
                ls[k], rs[k] = iv.l, iv.r
            elif kept[k]:
                raise ParseError(f"expected 'l,r', got {raw!r}", line=k + 1)
    if not kept.any():
        raise ParseError("no intervals in input")
    return IntervalCollection._from_arrays(*((ls, rs) if kept.all() else (ls[kept], rs[kept])))


def _read_lines(lines: str):
    """numpy's C line reader's rows of ``lines``, or None if it refuses them."""
    with warnings.catch_warnings(), contextlib.suppress(ValueError):
        warnings.simplefilter("ignore", UserWarning)  # a block of blanks has "no data"
        return np.loadtxt(lines.split("\n"), delimiter=",", comments="#", ndmin=2)


def _reader_block(rows: list):
    """The block of rows ``csv.reader`` read."""
    shaped = rows
    if {*map(len, rows)} - {5}:  # a row of another length reads as five blanks
        shaped = [row if len(row) == 5 else [""] * 5 for row in rows]
    columns = [list(map(operator.itemgetter(i), shaped)) for i in range(5)]
    return columns, _plain_rows(columns), rows.__getitem__


def _plain_rows(columns):
    """True when all endpoint text of a block is ``plain``, else whether each
    row's is: text that is not is left to the one-row validator."""
    if plain("".join(columns[-2] + columns[-1])):
        return True
    return np.fromiter(map(plain, map(operator.add, columns[-2], columns[-1])), bool)


def _check_header(header):
    if header is None:
        raise ParseError("empty input; expected header " + ",".join(CSV_HEADER))
    if [h.strip().lower() for h in header] != CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(CSV_HEADER)!r}, got {','.join(header)!r}", line=1
        )


def _csv_record(row, line: int, scale: Interval) -> SurveyRecord | None:
    """The one-row validator of a CSV row: its record, or None for a row of blanks."""
    if not "".join(row).strip():
        return None
    if len(row) != 5:
        raise ParseError(f"expected 5 fields, got {len(row)}", line=line)
    return _validate_record(*row, scale=scale, line=line)


def _json_rows(text: str) -> list:
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also a too-long integer, or too deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, list):
        raise ParseError("top-level JSON value must be an array of records")
    return payload


def _json_block(records: list):
    """A block of JSON records, as ``_csv_blocks`` gives rows: a record that is
    no object, or lacks a key, reads as nulls, and each name is its ``str``."""
    try:
        columns = [list(map(operator.itemgetter(key), records)) for key in CSV_HEADER]
    except (TypeError, KeyError):
        columns = [[obj.get(key) if isinstance(obj, dict) else None for obj in records]
                   for key in CSV_HEADER]
    # names must be strings or numbers and endpoints numbers, or the one-row validator decides
    kinds = [(str, int, float)] * 3 + [(int, float)] * 2
    decided = True
    if any({*map(type, col)} - {*kind} for col, kind in zip(columns, kinds)):
        decided = np.fromiter((all(type(v) in kind for v, kind in zip(row, kinds))
                               for row in zip(*columns)), bool)
    columns[:3] = (list(map(str, col)) for col in columns[:3])
    return columns, decided, records.__getitem__


_JSON_KINDS = {dict: "an object", list: "an array", bool: "a boolean", type(None): "null"}


def _json_record(obj, i: int, scale: Interval) -> SurveyRecord:
    """The one-row validator of JSON record number ``i``."""
    if not isinstance(obj, dict):
        raise ParseError("record must be an object", line=i)
    missing = [k for k in CSV_HEADER if k not in obj]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}", line=i)
    for key in CSV_HEADER[:3]:
        if type(obj[key]) in _JSON_KINDS:
            kind = _JSON_KINDS[type(obj[key])]
            raise ParseError(f"{key} must be a string or a number, not {kind}", line=i)
    return _validate_record(
        str(obj["group"]), str(obj["participant_id"]), str(obj["term"]),
        obj["l"], obj["r"], scale=scale, line=i,
    )


def _encode(column, clean, names: dict, code: dict) -> np.ndarray:
    """Each row's index among the distinct non-empty cleaned values in
    first-appearance order (-1 for ""). ``names`` (cleaned value to index,
    starting as {"": -1}) and ``code`` (raw value to index) carry over from one
    block to the next; ``clean`` runs once per distinct raw value."""
    if code:  # a later block often holds only raw values earlier blocks held
        try:
            return np.fromiter(map(code.__getitem__, column), np.intp, len(column))
        except KeyError:
            pass
    code.update({raw: names.setdefault(clean(raw), len(names) - 1)
                 for raw in dict.fromkeys(column) if raw not in code})
    return np.fromiter(map(code.__getitem__, column), np.intp, len(column))


def _repeats(names, lines):
    """Raise at the first row, in line order, whose (group, participant, term)
    repeats an earlier row's, naming the line it repeats."""
    (_, group_codes), (_, pid_codes), (terms, term_codes) = names
    cells = group_codes * len(terms) + term_codes
    order = np.lexsort((pid_codes, cells))  # stable: equal keys keep their row order
    cells, pid_codes = cells[order], pid_codes[order]
    at = np.flatnonzero((cells[1:] == cells[:-1]) & (pid_codes[1:] == pid_codes[:-1]))
    if at.size:  # the first repeat is second in its run of equal keys, after the row it repeats
        j = at[np.argmin(order[at + 1])]
        row, first = order[j + 1], order[j]
        key = tuple(values[codes[row]] for values, codes in names)
        raise ParseError(f"duplicate response for {key} (first seen at line {int(lines[first])})",
                         line=int(lines[row]))


def _dataset(blocks, validate, lines, scale: Interval) -> SurveyDataset:
    """The dataset over ``blocks``, one after another: each is five raw columns
    of up to TEXT_LINES rows, which rows ``decided`` (``plain`` endpoint text),
    and a function giving row j's raw row. A block is checked a column at a
    time, its names encoded (the name tables carry over, so names keep their
    first appearance in the file) and its endpoints written into arrays
    allocated once for every row; then the rows that fail a check, or that are
    not decided, go to ``validate(row, line, scale)`` in order: the first bad
    one raises, and a blank one (None) is dropped. So the Python objects held
    are O(TEXT_LINES), the arrays O(rows), and an error on an earlier line wins.
    Repeats are checked once, after the last block."""
    n = len(lines)
    clean = (lambda g: "" if g.strip() in DERIVED_GROUPS else g.strip(), str.strip, canonical_term)
    tables = [({"": -1}, {}) for _ in clean]  # a missing or reserved name is code -1
    codes = [np.empty(n, np.intp) for _ in clean]
    ls, rs, blank = np.empty(n), np.empty(n), np.zeros(n, bool)
    a = 0
    for columns, decided, row in blocks:
        b = a + len(columns[0])
        l, r, ok = endpoint_arrays(columns[3], columns[4])
        ok &= decided & (l >= scale.l) & (r <= scale.r)
        ls[a:b], rs[a:b] = l, r
        for column, f, (seen, code), out in zip(columns, clean, tables, codes):
            out[a:b] = c = _encode(column, f, seen, code)
            ok &= c >= 0
        for j in np.flatnonzero(~ok).tolist():
            blank[a + j] = validate(row(j), lines[a + j], scale) is None
        a = b
        del columns, row  # so the next block is split without this one
    if blank.any():
        *codes, ls, rs, lines = (arr[~blank] for arr in (*codes, ls, rs, np.asarray(lines)))
    names = [(tuple(seen)[1:], c) for (seen, _), c in zip(tables, codes)]
    _repeats(names, lines)
    for arr in [*codes, ls, rs]:
        arr.flags.writeable = False
    return SurveyDataset(scale, *names[0], *names[1], *names[2], ls, rs)


def group_collection(ds: SurveyDataset, group: str, term: str) -> IntervalCollection:
    """Intervals of one (group, term) cell, in response order.

    "PS" pools the professional groups (Physiotherapist + Surgeon) and "ALL"
    every stored group: their cells of the term in the dataset's cell index
    (for "ALL", the term's whole span), put back in response order.
    """
    term = canonical_term(term)
    if term not in ds.terms:
        raise UnknownTerm(f"term {term!r} not in dataset (has {', '.join(ds.terms)})")
    if group == "PS":
        wanted = [i for i, g in enumerate(ds.groups) if g in PROFESSIONAL_GROUPS]
        if not wanted:
            raise UnknownGroup("no professional groups (Physiotherapist/Surgeon) in dataset")
    elif group in (*ds.groups, "ALL"):
        wanted = range(len(ds.groups)) if group == "ALL" else [ds.groups.index(group)]
    else:
        raise UnknownGroup(f"group {group!r} not in dataset (has {', '.join(ds.groups)})")
    rows = ds._rows(wanted, term)
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


def _check_mode(mode: str):
    if mode not in ("exact", "alpha"):
        raise ValueError(f"mode must be exact or alpha, got {mode!r}")


def cell_gamma(coll: IntervalCollection, mode: str, alpha_cuts: int) -> GammaBreakdown:
    """γ of a collection, exact or from ``alpha_cuts`` α-cuts of its agreement set."""
    _check_mode(mode)
    return gamma_exact(coll) if mode == "exact" else gamma_alpha(build_iaa(coll), cuts=alpha_cuts)


def report(
    ds: SurveyDataset,
    mode: str = "exact",
    alpha_cuts: int = DEFAULT_CUTS,
    samples: int = DEFAULT_SAMPLES,
) -> AgreementReport:
    """Tabulate attributes and agreement per cell, for each stored group and "ALL".

    "ALL" is a term's whole span of the cell index, read group by group: no
    value depends on row order, as ``coverage_cells`` sorts the endpoints.
    Cells with fewer than two responses are skipped and listed in
    ``report.skipped`` so the run always completes. ``samples``, ``mode`` and,
    in alpha mode, ``alpha_cuts`` are checked first. A row holds, to the bit,
    what ``attributes`` and ``cell_gamma`` give on the cell's collection, and
    a cell raises their first error, with ``.cell`` set to (group, term).
    A block, the next cells, at least one, whose costs add up to at most
    ``GRID_CHUNK`` (a cell costs its responses plus ``samples``, plus
    ``alpha_cuts`` in alpha mode), is measured together by ``_report_block``: its
    centroid grids are walked in chunks, bounded at any ``samples``, and its
    sweep arrays grow with its responses, bounded but for a single larger cell.
    """
    _check_samples(samples)
    _check_mode(mode)
    if mode == "alpha":
        _check_cuts(alpha_cuts)
    order, bounds = ds._index
    code, ng = {term: i for i, term in enumerate(ds.term_names)}, len(ds.groups)
    t = np.array([code[term] for term in ds.terms], dtype=np.intp) * ng
    # stored group g's cell of a term spans its cells t + g to t + g + 1, "ALL"'s t to t + ng
    first, last = (np.array(g)[:, None] + t for g in ([*range(ng), 0], [*range(1, ng + 1), ng]))
    starts, n = bounds[first].ravel(), (bounds[last] - bounds[first]).ravel()
    names = [(g, term) for g in (*ds.groups, "ALL") for term in ds.terms]
    skipped = tuple((*names[i], "fewer than 2 responses" if n[i] else "no responses")
                    for i in np.flatnonzero(n < 2).tolist())
    kept = np.flatnonzero(n >= 2)
    # a block's sweep arrays (its responses) and grid rows (its points) hold a walk chunk's values
    cost = n[kept] + samples + (alpha_cuts if mode == "alpha" else 0)
    ends = np.cumsum(cost)  # kept cells i to fits[i] - 1 cost up to GRID_CHUNK
    fits = np.searchsorted(ends, ends - cost + GRID_CHUNK, "right").tolist()
    out, i = [], 0
    while i < kept.size:
        j = max(i + 1, fits[i])
        cells, i = kept[i:j], j
        picked = order[ranges(starts[cells], starts[cells] + n[cells])]
        out += _report_block([names[c] for c in cells.tolist()], ds.l[picked], ds.r[picked],
                             n[cells], mode, alpha_cuts, samples)
    return AgreementReport(rows=tuple(out), skipped=skipped)


def _report_block(names, ls, rs, n, mode, alpha_cuts, samples) -> list[ReportRow]:
    """Rows of cells whose responses lie cell after cell in ``ls`` and ``rs``, ``n`` per
    cell: each cell is swept once (``coverage_cells``), the sweeps are concatenated, so their
    arrays grow with the block's responses, and each later step runs once over them all,
    adding what the per-cell path adds, in order. The centroid grids, a row per cell, walked
    in chunks (``walk_linspace``), read one ``step_table`` of all cells: a row with a few
    points per coordinate by its own breakpoint search and ``step_at``, the others placed,
    all at once, from each coordinate's first grid point (``_grid_places``)."""
    ends = np.cumsum(n)
    sweeps = [coverage_cells(IntervalCollection._from_arrays(ls[e - c:e], rs[e - c:e]))
              for e, c in zip(ends.tolist(), n.tolist())]
    coords = np.concatenate([x for x, _ in sweeps])
    counts = np.concatenate([y for _, c in sweeps for y in (c, [0])])  # no run crosses a 0
    m = np.array([x.size for x, _ in sweeps])
    first, cell = np.cumsum(m) - m, np.repeat(np.arange(n.size), m)
    levels = counts / n[cell]
    key, start, stop = level_runs(counts)  # cell c's level k is summed at ends[c] - n[c] + k - 1
    lengths = run_sums((ends - n)[cell[start]] + key, coords[stop] - coords[start], ends[-1])
    support = [float(np.diff(x)[c > 0].sum()) for x, c in sweeps]  # as support_length sums
    steps = step_table(levels[:-1])  # each cell's closing 0 is a level between cells
    placed, place = _grid_places(steps, coords, cell, first, m, samples)
    looked = np.flatnonzero(~placed)
    def chunk(xs, a, b, scale=1.0):
        if placed.all():
            mus = place(a, b)
        else:  # a row starts on its cell's first coordinate: r >= 1, r - 1 in the cell
            x = xs[looked] if placed.any() else xs
            r = np.stack([np.searchsorted(sweeps[j][0], row, "right")
                          for j, row in zip(looked.tolist(), x)])
            mus = step_at(steps, coords, r + first[looked, None], x)
            if placed.any():
                looked_mus, mus = mus, np.empty(xs.shape)
                mus[looked], mus[placed] = looked_mus, place(a, b)
        np.multiply(xs, mus, out=xs)
        if scale != 1.0:
            xs *= scale
        return mus.sum(axis=1), xs.sum(axis=1)
    lo, hi = coords[first, None], coords[first + m - 1, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a moment past the largest float is redone
        weight, moment = walk_linspace(lo, hi, samples, chunk)
    compared, size = lengths, n  # the lengths γ compares: every level's, or every cut's
    if mode == "alpha":  # cut i is level k, the first with k/n >= i/alpha_cuts
        alphas = np.arange(1, alpha_cuts + 1) / alpha_cuts
        ns, which = np.unique(n, return_inverse=True)
        ks = np.stack([np.searchsorted(np.arange(c + 1) / c, alphas) for c in ns.tolist()])
        compared = lengths[((ends - n - 1)[:, None] + ks[which]).ravel()]
        size = np.full(n.size, alpha_cuts)
    lowest = compared[np.cumsum(size) - size]
    for c in np.flatnonzero((weight == 0.0) | (lowest == 0.0))[:1].tolist():
        empty = NO_WIDTH if mode == "exact" else EMPTY_CUT.format(alpha_cuts)
        exc = EmptySet(ZERO_MEMBERSHIP) if weight[c] == 0.0 else EmptySupport(empty)
        exc.cell = names[c]
        raise exc
    centroid = moment / weight
    if not np.isfinite(moment).all():  # summed on grids scaled by 2**-k, as in attributes
        k, huge = samples.bit_length(), ~np.isfinite(moment)
        _, scaled = walk_linspace(lo, hi, samples, lambda xs, a, b: chunk(xs, a, b, 2.0**-k))
        centroid[huge] = scaled[huge] / weight[huge] * 2.0**k
    return list(map(ReportRow, *zip(*names), np.maximum.reduceat(levels, first).tolist(),
                    centroid.tolist(), gamma_sums(compared, size)[0].tolist(), support,
                    lengths[ends - 1].tolist(), n.tolist()))


def _grid_places(steps, coords, cell, first, m, samples):
    """Which cells' grid rows ``np.linspace(lo, hi, samples)`` (lo and hi a cell's first
    and last coordinate) are placed, not looked up, and ``place(a, b)``: the placed rows'
    ``step_at`` values on their points a..b-1. A row is placed when a walk chunk (at most
    GRID_CHUNK points) holds STEP_POINTS_PER_BREAKPOINT points per coordinate and its step
    does not underflow, so its points but the last are ``i * step + lo``, ascending. Each
    coordinate v's first point at or above it, I, is guessed from the step and checked by
    that arithmetic (``_first_reaching``); point I reads v's breakpoint value if it is v,
    and the points after it, up to the next coordinate's I, v's cell level: one
    ``np.repeat`` over every placed row, its indices clipped to the chunk. A row with an I
    not settled, or with two points on one coordinate, is looked up. The last point, hi,
    reads the last breakpoint's value on its own: a subnormal step can put the points
    before it past it."""
    div, lo, hi = samples - 1, coords[first], coords[first + m - 1]
    step = (hi - lo) / div  # as linspace_at's: its points but the last are i * step + lo
    placed = (m * STEP_POINTS_PER_BREAKPOINT <= min(samples, GRID_CHUNK)) & (step > 0)
    if not placed.any():
        return placed, None
    on = placed[cell]
    c, v = cell[on], coords[on]
    lo, step = lo[c], step[c]
    def x(j):  # point j of v's row, as linspace_at gives it for j < div
        return j * step + lo
    with np.errstate(over="ignore"):
        i = np.clip(np.ceil((v - lo) / step), 0, div).astype(np.intp)
    settled = _first_reaching(x, v, i, div)
    hit = x(np.minimum(i, div - 1)) == v  # i == div: no point reaches v
    placed[c[~settled | hit & (x(i + 1) == v)]] = False  # or two points on v
    keep = placed[c]
    edges = np.repeat(i[keep], 2)
    edges[1::2] += hit[keep]  # the first point past v
    vals = steps[1:][np.repeat(placed[cell], 2)]  # (on v, after v) of every placed coordinate
    rows = np.repeat(np.arange(np.count_nonzero(placed)), 2 * m[placed])
    last = steps[2 * (first + m)[placed] - 1]

    def place(a: int, b: int) -> np.ndarray:
        at = np.clip(edges - a, 0, b - a)
        at += rows * (b - a)
        mus = np.repeat(vals, np.diff(at, append=last.size * (b - a))).reshape(-1, b - a)
        if b == samples:
            mus[:, -1] = last
        return mus
    return placed, place


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
    """Five-column CSV: group, term, height, centroid, agreement ratio, names quoted as needed."""
    names = {s: '"' + s.replace('"', '""') + '"' if re.search('[,"\r\n]', s) else s
             for s in {name for row in rep.rows for name in (row.group, row.term)}}
    lines = ["group,term,height,centroid,agreement_ratio"]
    for row in rep.rows:
        lines.append(f"{names[row.group]},{names[row.term]},{_fmt(row.height)},"
                     f"{_fmt(row.centroid)},{_fmt(row.gamma)}")
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


def grid_series(mf: MembershipFunction, lo: float, hi: float, samples: int):
    """``np.linspace(lo, hi, samples)`` and mf's membership on it, in (xs, mu) blocks of
    TEXT_LINES points: ``linspace_at``'s points and ``_on_grid``'s values, to the bit,
    so no array covers the whole grid."""
    base = np.arange(min(samples, TEXT_LINES), dtype=np.float64)
    for a in range(0, samples, TEXT_LINES):
        xs = linspace_at(lo, hi, samples, base[:samples - a] + a)
        yield xs, mf._on_grid(xs)


def series_text(blocks, format: str):
    """The text of a membership series as ``format`` (csv or json), a block of (xs, mus)
    at a time, so a writer holds one block's text: CSV lines ``x,mu`` under a header, or
    one JSON array of [x, mu] pairs, each value ``_fmt``'s. A block's ``.6g`` text is
    one ``%`` over its values; JSON writes each value as ``json.dumps`` writes the float
    that text reads as, from the text (``_json_number``)."""
    yield "x,mu\n" if format == "csv" else "["
    for i, (xs, mus) in enumerate(blocks):
        text = "%.6g,%.6g\n" * xs.size % tuple(np.column_stack([xs, mus]).ravel().tolist())
        if format == "csv":
            yield text
        else:  # a number with a point and no exponent is its float's repr already
            numbers = [t if "." in t and "e" not in t else _json_number(t)
                       for t in text.replace(",", " ").split()]
            yield (", " if i else "") + ("[%s, %s], " * xs.size % tuple(numbers))[:-2]
    if format != "csv":
        yield "]\n"


def _json_number(text: str) -> str:
    """``json.dumps`` of the float that ``.6g`` text reads as: its repr, which has the
    text's digits (a float keeps 6 significant digits), with ``.0`` after an integer, an
    exponent of 6 to 15 written out, and Infinity or NaN for inf or nan. Only a subnormal
    (exponent -308 or below), whose repr may hold fewer digits, is read as a float."""
    mant, _, exp = text.partition("e")
    if not exp:
        return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(text, text + ".0")
    if 6 <= int(exp) < 16:
        return mant.replace(".", "").ljust(int(exp) + 1 + mant.startswith("-"), "0") + ".0"
    return repr(float(text)) if int(exp) <= -308 else text
