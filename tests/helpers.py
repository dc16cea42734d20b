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
            for raw in (l_raw, r_raw):  # float() also reads "1_0" and "١"; endpoints may not
                if "_" in str(raw) or not str(raw).strip().isascii():
                    raise ValueError(f"not a plain ASCII number: {raw!r}")
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
        try:  # the header is checked, then the whole text is read, before any row is validated
            header = next(reader)
            if [h.strip().lower() for h in header] != CSV_HEADER:
                shown = ",".join(header)
                raise ParseError(f"expected header {','.join(CSV_HEADER)!r}, got {shown!r}", line=1)
            rows = [(row, reader.line_num) for row in reader]
        except csv.Error as exc:
            raise ParseError(f"malformed CSV: {exc}", line=reader.line_num) from None
        for row, line in rows:
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
            for key in CSV_HEADER[:3]:
                kind = {dict: "an object", list: "an array", bool: "a boolean", type(None): "null"}
                if type(obj[key]) in kind:
                    raise ParseError(
                        f"{key} must be a string or a number, not {kind[type(obj[key])]}", line=i
                    )
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


def parse_each_line(text):
    """The per-line interval parser ``cli.parse_interval_lines`` must agree with:
    validates one line at a time, in order, and returns the Interval list."""
    from intervalagreement.errors import ParseError
    from intervalagreement.intervals import read_interval

    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'l,r', got {raw!r}", line=lineno)
        intervals.append(read_interval(*parts, lineno, raw))
    return intervals


def two_search_counts(coll, coords):
    """The cover count ``coverage_cells`` must give each open cell between
    consecutive ``coords``: the left endpoints at or below its left end, less
    the right ones, by two binary searches in separately sorted endpoints."""
    import numpy as np

    ls, rs = coll.endpoints()
    cell_left = coords[:-1]
    return (np.searchsorted(np.sort(ls), cell_left, side="right")
            - np.searchsorted(np.sort(rs), cell_left, side="right"))


def lexsort_level_marks(at, lo, hi):
    """The (k - 1, index) marks ``intervals._level_marks`` must give: each level k
    in lo+1..hi at each index in ``at``, ordered by ``np.lexsort`` on (level, index)."""
    import numpy as np

    from intervalagreement.intervals import ranges

    idx = np.repeat(at, hi - lo)
    level = ranges(lo, hi)
    order = np.lexsort((idx, level))
    return level[order], idx[order]


def oracle_level_sets(coll):
    """The per-level region builder ``level_sets`` must agree with: for each
    level k, the maximal runs of coverage cells with count >= k, merged into
    closed segments (cell j spans coords[j] to coords[j + 1]). O(n) per level."""
    from intervalagreement import DisjointRegion, Interval
    from intervalagreement.intervals import coverage_cells, runs

    coords, counts = coverage_cells(coll)
    regions = []
    for k in range(1, coll.n + 1):
        starts, stops = runs(counts >= k)
        segs = map(Interval, coords[starts].tolist(), coords[stops].tolist())
        regions.append(DisjointRegion(tuple(segs)))
    return regions


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


def gaussian_membership(mean, stddev, domain, x):
    """Gaussian membership by the five-step formula ``Gaussian`` first had: x - mean,
    squared, negated, over 2 stddev^2, exp; 0 off the domain, if one is given."""
    import numpy as np

    with np.errstate(over="ignore"):
        out = x - mean
        np.square(out, out=out)
        np.negative(out, out=out)
        out /= 2.0 * stddev**2
    np.exp(out, out=out)
    if domain is not None:
        out[(x < domain.l) | (x > domain.r)] = 0.0
    return out


def step_membership(bp, lv, x):
    """Step-function membership by a clipped cell index, as ``PiecewiseConstant``
    must give it bit for bit: the level of the cell from the last breakpoint at
    or before x; on an interior breakpoint ``np.maximum`` of the cell's level and
    the one before it, in that order; 0 off the breakpoints' span, at NaN, and
    everywhere when there is no cell."""
    import numpy as np

    if not lv.size:
        return np.zeros_like(x)
    idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, lv.size - 1)
    val = lv[idx]
    val = np.where((x == bp[idx]) & (idx >= 1), np.maximum(val, lv[idx - 1]), val)
    return np.where((x >= bp[0]) & (x <= bp[-1]), val, 0.0)


def oracle_run_sums(keys, widths, size):
    """The per-key builtin-``sum`` summation ``run_sums`` replaced: each key's
    widths (runs ordered by key, then position) sliced out and added left to
    right from 0. Written as a loop, since builtin ``sum`` compensates from
    Python 3.12 on; on 3.11 the two give the same bits."""
    import numpy as np

    bounds = np.searchsorted(keys, np.arange(size + 1)).tolist()
    widths = list(widths)
    sums = []
    for a, b in zip(bounds, bounds[1:]):
        total = 0
        for w in widths[a:b]:
            total += w
        sums.append(total)
    return np.array(sums, dtype=np.float64)


def oracle_print_breakdown(breakdown, out):
    """The per-line ``iaa gamma`` printer: one f-string per agreement level."""
    lengths = breakdown.lengths.tolist()
    lines = [f"{breakdown.gamma:.6f}\n"]
    for i, (weight, ratio) in enumerate(
        zip(breakdown.weights.tolist(), breakdown.ratios.tolist()), start=2
    ):
        lines.append(
            f"level {i}: weight={weight:.6f} length={lengths[i - 1]:.6f} "
            f"prev={lengths[i - 2]:.6f} ratio={ratio:.6f}\n"
        )
    out.write("".join(lines))


def series_blocks(xs, mus, format):
    """``survey.series_text`` of whole arrays, ``survey.TEXT_LINES`` points at a time
    (read when called, so a patched value holds): the referee of the text ``iaa build``
    and ``iaa series`` print from ``survey.grid_series``'s blocks."""
    from intervalagreement import survey

    size = survey.TEXT_LINES
    return survey.series_text(((xs[a:a + size], mus[a:a + size])
                               for a in range(0, xs.size, size)), format)


def series_to_csv(xs, mus):
    return "".join(series_blocks(xs, mus, "csv"))


def series_to_json(xs, mus):
    return "".join(series_blocks(xs, mus, "json"))


def oracle_report(ds, mode="exact", alpha_cuts=10, samples=1001):
    """The per-cell report loop ``survey.report`` must agree with, bit for bit:
    every cell runs the whole one-collection pipeline (``group_collection``,
    ``build_iaa``, ``attributes``, ``cell_gamma``). An error raised on a cell
    is tagged with that cell as ``.cell``."""
    from intervalagreement import AgreementError, TooFewSources, attributes, build_iaa
    from intervalagreement.survey import AgreementReport, ReportRow, cell_gamma, group_collection

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
            try:
                fs = build_iaa(coll)
                attrs = attributes(fs, samples=samples)
                breakdown = cell_gamma(coll, mode, alpha_cuts)
            except AgreementError as exc:
                exc.cell = (group, term)
                raise
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
