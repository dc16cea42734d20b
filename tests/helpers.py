"""Shared fixtures: the worked-example interval sets and a hypothesis strategy."""

from hypothesis import strategies as st

FIG_OVERLAP = [(2, 4), (2.5, 3.5)]
FIG_NONCONVEX = [(2, 5), (3, 5), (6, 8), (3, 7)]
FIG_FULLCORE = [(2, 5), (3, 5), (4, 6), (3, 7)]


def finite_intervals(min_size=1, max_size=6):
    endpoint = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
    pair = st.tuples(endpoint, endpoint).map(sorted)
    return st.lists(pair, min_size=min_size, max_size=max_size)


def lattice_intervals(min_size=1, max_size=6, step=0.25):
    """Endpoints on a coarse lattice: overlap widths are never fp slivers,
    so length ratios stay numerically stable under translation/scaling."""
    endpoint = st.integers(-200, 200).map(lambda k: k * step)
    pair = st.tuples(endpoint, endpoint).map(sorted)
    return st.lists(pair, min_size=min_size, max_size=max_size)


def oracle_load_survey(text, format="csv", scale=None):
    """The per-row survey loader the columnar one must agree with.

    Validates one row (CSV) or record (JSON) at a time, in order, and only
    then checks for duplicate responses. Returns the SurveyRecord tuple or
    raises the first error.
    """
    import csv
    import io
    import json

    from intervalagreement import InvalidInterval, ParseError, RangeError, make_interval
    from intervalagreement.survey import CSV_HEADER, DEFAULT_SCALE, SurveyRecord, canonical_term

    scale = scale or DEFAULT_SCALE

    def validate(group, participant_id, term, l_raw, r_raw, line):
        group, participant_id = group.strip(), participant_id.strip()
        term = canonical_term(str(term))
        if not group or not participant_id or not term:
            raise ParseError("group, participant_id and term must be non-empty", line=line)
        if group in ("PS", "ALL"):
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

    numbered = []
    if format == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        assert [h.strip().lower() for h in header] == CSV_HEADER
        for row in reader:
            line = reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 5:
                raise ParseError(f"expected 5 fields, got {len(row)}", line=line)
            numbered.append((validate(*row, line=line), line))
    else:
        for i, obj in enumerate(json.loads(text), start=1):
            if not isinstance(obj, dict):
                raise ParseError("record must be an object", line=i)
            missing = [k for k in CSV_HEADER if k not in obj]
            if missing:
                raise ParseError(f"missing keys: {', '.join(missing)}", line=i)
            rec = validate(
                str(obj["group"]), str(obj["participant_id"]), str(obj["term"]),
                obj["l"], obj["r"], line=i,
            )
            numbered.append((rec, i))
    seen = {}
    for rec, line in numbered:
        key = (rec.group, rec.participant_id, rec.term)
        if key in seen:
            raise ParseError(
                f"duplicate response for {key} (first seen at line {seen[key]})", line=line
            )
        seen[key] = line
    return tuple(rec for rec, _ in numbered)


def run_length_scan(xs, mus, alpha):
    """The pure-Python threshold scan the sampled cut lengths must agree with.

    Opens a run when mu climbs to >= alpha, closes it at the previous grid
    point when mu drops below, and at the final point if the run is still
    open. Single-point runs contribute zero length.
    """
    total = 0.0
    left = 0.0
    open_run = False
    n = xs.shape[0]
    for i in range(n):
        if mus[i] < alpha:
            if open_run:
                total += xs[i - 1] - left
            open_run = False
        else:
            if not open_run:
                left = xs[i]
            open_run = True
    if open_run:
        total += xs[n - 1] - left
    return total


def all_vertex_membership(xs, mus, x):
    """PiecewiseLinear membership with the max over tied vertices fixed up by
    comparing the input with every distinct vertex x, tied or not."""
    import numpy as np

    out = np.interp(x, xs, mus, left=0.0, right=0.0)
    for xv in np.unique(xs):
        hits = x == xv
        if hits.any():
            out[hits] = mus[xs == xv].max()
    return out
