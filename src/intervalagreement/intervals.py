"""Closed-interval algebra: unions, coverage level sets, and a brute-force oracle.

All operations treat intervals as closed sets but measure lengths, so overlaps
at a single point (touching intervals, zero-width responses) carry no weight.

Where values reach a threshold is found as (key, start, stop) runs, by key,
then position: ``level_runs`` for every level of a coverage count at once,
``ladder_runs`` for a few float thresholds (the α-cuts in ``fuzzyset``).
``run_sums`` turns runs into lengths and ``run_regions`` into regions. A run
key may carry a cell offset: keyed by k - 1 plus the sizes of the cells before
it, level k of many cells swept side by side is measured by one ``run_sums``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import add
from typing import Iterable, Iterator

import numpy as np

from .errors import CombinatorialLimit, EmptyCollection, InvalidInterval, ParseError

ORACLE_TUPLE_LIMIT = 10**6


@dataclass(frozen=True)
class Interval:
    """A closed interval [l, r] in domain units; zero width is allowed."""

    l: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.l) and math.isfinite(self.r)):
            raise InvalidInterval(f"endpoints must be finite, got [{self.l}, {self.r}]")
        if self.l > self.r:
            raise InvalidInterval(f"left endpoint exceeds right: [{self.l}, {self.r}]")
        if not math.isfinite(self.r - self.l):
            raise InvalidInterval(f"width of [{self.l}, {self.r}] is not finite")

    @property
    def length(self) -> float:
        return self.r - self.l

    def contains(self, x: float) -> bool:
        return self.l <= x <= self.r


def make_interval(l: float, r: float) -> Interval:
    """Validated constructor; raises InvalidInterval on reversed or non-finite
    endpoints, or on a width too large for a float."""
    return Interval(float(l), float(r))


class IntervalCollection:
    """One interval per participant, in response order (never sorted).

    The validated endpoints are stored as two read-only float arrays;
    ``intervals`` builds the ``Interval`` tuple on first read. No sweep is
    kept: each ``coverage_cells`` call sweeps the endpoints again.
    """

    def __init__(self, intervals: Iterable[Interval]):
        ivs = tuple(intervals)
        self._set(
            np.array([iv.l for iv in ivs], dtype=np.float64),
            np.array([iv.r for iv in ivs], dtype=np.float64),
        )
        self.__dict__["intervals"] = ivs

    @classmethod
    def _from_arrays(cls, ls: np.ndarray, rs: np.ndarray) -> "IntervalCollection":
        """Collection over endpoint arrays the caller has already validated."""
        coll = cls.__new__(cls)
        coll._set(ls, rs)
        return coll

    def _set(self, ls: np.ndarray, rs: np.ndarray):
        if ls.size == 0:
            raise EmptyCollection("a collection needs at least one interval")
        ls.flags.writeable = False
        rs.flags.writeable = False
        self._ls, self._rs = ls, rs

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self._ls.tolist(), self._rs.tolist()))

    @property
    def n(self) -> int:
        return self._ls.size

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __eq__(self, other):
        if not isinstance(other, IntervalCollection):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        return f"IntervalCollection(intervals={self.intervals!r})"

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) endpoint arrays in participant order, read-only."""
        return self._ls, self._rs


def plain(text: str) -> bool:
    """Whether number text may go to builtin ``float`` or ``int``: ASCII and
    without ``_``, since both read "1_0" as 10 and "١" as 1."""
    return text.isascii() and "_" not in text


def read_interval(l_raw, r_raw, line: int, shown) -> Interval:
    """The interval of one raw endpoint pair, each number text or a JSON number.
    Errors carry ``line``, and quote a pair that is not two numbers as ``shown``."""
    try:
        if isinstance(l_raw, bool) or isinstance(r_raw, bool):
            raise TypeError("a JSON boolean is not an endpoint")
        if not plain(str(l_raw).strip() + str(r_raw).strip()):
            raise ValueError("an endpoint has digit separators or non-ASCII digits")
        l, r = float(l_raw), float(r_raw)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"endpoints must be numbers, got {shown!r}", line=line)
    try:
        return make_interval(l, r)
    except InvalidInterval as exc:
        raise InvalidInterval(str(exc), line=line) from exc


def endpoint_arrays(l_raw, r_raw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float arrays of two endpoint columns, and which pairs pass ``ordered``.
    A value builtin ``float`` rejects reads as NaN and fails; whether number
    text is ``plain`` is the caller's check."""
    ls, rs = _floats(l_raw), _floats(r_raw)
    return ls, rs, ordered(ls, rs)


def ordered(ls: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Which pairs ``Interval`` accepts: ordered, with a finite width."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (ls <= rs) & np.isfinite(rs - ls)


def _floats(values) -> np.ndarray:
    """Builtin ``float`` of each value, NaN where it raises."""
    out, rest = [], iter(values)
    while True:
        try:  # extend keeps what it appended before the value float rejected
            out.extend(map(float, rest))
            return np.array(out, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            out.append(math.nan)


def collection(pairs: Iterable[tuple[float, float]]) -> IntervalCollection:
    """Build a collection from (l, r) pairs, checked a column at a time; the
    first bad pair raises what ``make_interval`` raises on it."""
    pairs = list(pairs)
    ls, rs, ok = endpoint_arrays([l for l, _ in pairs], [r for _, r in pairs])
    for i in np.flatnonzero(~ok)[:1].tolist():
        make_interval(*pairs[i])
    return IntervalCollection._from_arrays(ls, rs)


@dataclass(frozen=True)
class DisjointRegion:
    """Canonical union-of-intervals form: sorted, pairwise separated segments."""

    segments: tuple[Interval, ...]

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if not a.r < b.l:
                raise InvalidInterval(
                    f"segments must be sorted and separated: [{a.l},{a.r}] then [{b.l},{b.r}]"
                )

    @property
    def total_length(self) -> float:
        # left to right on every Python: builtin sum compensates from 3.12 on
        return reduce(add, (seg.length for seg in self.segments), 0.0)

    @property
    def is_empty(self) -> bool:
        return not self.segments

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.segments)


def _merge(pairs: list[tuple[float, float]]) -> DisjointRegion:
    """Merge possibly overlapping/touching (l, r) pairs into canonical form."""
    if not pairs:
        return DisjointRegion(())
    pairs.sort()
    merged = [list(pairs[0])]
    for lo, hi in pairs[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return DisjointRegion(tuple(Interval(lo, hi) for lo, hi in merged))


def union_region(coll: IntervalCollection) -> DisjointRegion:
    """Region covered by at least one interval (the lowest agreement level)."""
    return _merge([(iv.l, iv.r) for iv in coll])


def coverage_cells(coll: IntervalCollection) -> tuple[np.ndarray, np.ndarray]:
    """Sweep the 2n endpoints: sorted distinct coordinates plus the number of
    intervals covering the open cell between each consecutive pair.

    Coverage is counted on open cells, so touching or zero-width intervals never
    contribute measurable overlap. Of the first[j + 1] sorted endpoints below coordinate
    j + 1, one binary search finds the ℓ left ones: cell j's count is ℓ - (first[j + 1] - ℓ).
    Raises InvalidInterval when the intervals together span more than a float can measure.
    """
    ls, rs = coll.endpoints()
    ends = np.sort(np.concatenate([ls, rs]))  # np.unique's sort, so of -0.0 and 0.0
    first = np.flatnonzero(np.concatenate([[True], ends[1:] != ends[:-1]]))
    coords = ends[first]  # the same copy of each value np.unique keeps
    lo, hi = float(coords[0]), float(coords[-1])
    if not math.isfinite(hi - lo):
        raise InvalidInterval(f"intervals span [{lo}, {hi}], wider than a float can measure")
    return coords, 2 * np.searchsorted(np.sort(ls), coords[:-1], "right") - first[1:]


def runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of each maximal run of True in a 1-D mask, stops
    exclusive: run i is ``mask[starts[i]:stops[i]]``."""
    changes = np.empty(mask.size + 1, dtype=bool)  # edges, and either end that is True
    changes[0], changes[-1] = (mask[0], mask[-1]) if mask.size else (False, False)
    np.not_equal(mask[1:], mask[:-1], out=changes[1:-1])
    edges = np.flatnonzero(changes)
    return edges[0::2], edges[1::2]


def run_sums(keys: np.ndarray, widths: np.ndarray, size: int) -> np.ndarray:
    """Total width per key 0..size-1, for run widths ordered by key, then by
    position. ``np.add.at`` is unbuffered and applies the widths in index
    order, so each key's widths are added left to right from 0.0: the float
    operations ``DisjointRegion.total_length`` performs on the region of
    those runs, and both give identical bits (and printed digits). A numpy
    reduction or a suffix sum would reorder the additions."""
    sums = np.zeros(size)
    np.add.at(sums, keys, widths)
    return sums


def run_regions(keys: np.ndarray, lefts: np.ndarray, rights: np.ndarray, size: int) -> list:
    """One ``DisjointRegion`` per key 0..size-1, for runs ordered as ``run_sums``'s."""
    bounds = np.searchsorted(keys, np.arange(size + 1)).tolist()
    segs = list(map(Interval, lefts.tolist(), rights.tolist()))
    return [DisjointRegion(tuple(segs[a:b])) for a, b in zip(bounds, bounds[1:])]


def ladder_runs(values: np.ndarray, thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, start, stop) of every maximal run of ``values >= thresholds[i]``,
    by i, then by position; stops exclusive. Cuts are nested, so thresholds
    are visited in ascending order, each scanning only the span of the one
    before's runs; past an empty cut every higher one is empty too."""
    thresholds = np.asarray(thresholds, dtype=np.float64).tolist()
    none = np.zeros(0, dtype=np.intp)
    starts, stops = [none] * len(thresholds), [none] * len(thresholds)
    lo, hi = 0, values.size
    for i in sorted(range(len(thresholds)), key=thresholds.__getitem__):
        run_starts, run_stops = runs(values[lo:hi] >= thresholds[i])
        if not run_starts.size:
            break
        starts[i], stops[i] = run_starts + lo, run_stops + lo
        lo, hi = starts[i][0], stops[i][-1]
    keys = np.arange(len(thresholds)).repeat([s.size for s in starts])
    return keys, np.concatenate([none, *starts]), np.concatenate([none, *stops])


def ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """``arange(a, b)`` for each pair of starts and stops, concatenated in order."""
    sizes = stops - starts
    return np.repeat(starts - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())


def _level_marks(at: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k - 1, coordinate index) for each level k in lo+1..hi at each distinct index in
    `at`, by level, then by position: one sort of the unique int64 keys (k - 1) << shift
    | index, which fit while the top level's and index's bit lengths add to at most 63."""
    shift = int(at.max(initial=0)).bit_length()
    if int(hi.max(initial=0)).bit_length() + shift > 63:  # reached only from 2**31 intervals on
        raise OverflowError("coverage levels and indices overflow an int64 key")
    keys = ranges(lo, hi) << shift
    keys |= np.repeat(at, hi - lo)  # in place: two mark arrays at a time, not three
    keys.sort()
    return keys >> shift, keys & ((1 << shift) - 1)


def level_runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k - 1, start, stop) of every maximal run of ``counts >= k``, for all
    levels k at once, by level, then by position; stops exclusive. A rise
    from a to b opens a run for each level a+1..b and a fall closes them;
    one level's runs are disjoint, so its i-th opening pairs with its i-th
    closing."""
    padded = np.concatenate([[0], counts, [0]])  # count left/right of each boundary
    step = np.diff(padded)
    rises, falls = np.flatnonzero(step > 0), np.flatnonzero(step < 0)
    key, start = _level_marks(rises, padded[rises], padded[rises + 1])
    _, stop = _level_marks(falls, padded[falls + 1], padded[falls])
    return key, start, stop


def level_sets(coll: IntervalCollection) -> list[DisjointRegion]:
    """Entry k-1 is the region where at least k of the n intervals overlap.

    Regions are nested and their lengths are the agreement-level lengths the
    ratio measure is built from; all come from one ``level_runs``, in O(n log n).
    """
    coords, counts = coverage_cells(coll)
    key, start, stop = level_runs(counts)
    return run_regions(key, coords[start], coords[stop], coll.n)


def level_lengths(coll: IntervalCollection) -> np.ndarray:
    """Total length per agreement level, index k-1 for level k, in O(n log n).

    The runs of every level (``level_runs``, at most n in all) are summed by
    ``run_sums`` to the bits of each ``level_sets`` region's total length.
    """
    coords, counts = coverage_cells(coll)
    key, start, stop = level_runs(counts)
    return run_sums(key, coords[stop] - coords[start], coll.n)


def tuple_length_oracle(
    coll: IntervalCollection, k: int, limit: int = ORACLE_TUPLE_LIMIT
) -> float:
    """Brute-force length of the union over all C(n, k) k-tuple intersections.

    Test oracle only: enumerates every tuple, intersects, unions, measures.
    Raises CombinatorialLimit when C(n, k) exceeds `limit`.
    """
    n = coll.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if math.comb(n, k) > limit:
        raise CombinatorialLimit(f"C({n},{k}) = {math.comb(n, k)} exceeds limit {limit}")
    pieces = []
    for combo in combinations(coll.intervals, k):
        lo = max(iv.l for iv in combo)
        hi = min(iv.r for iv in combo)
        if lo <= hi:
            pieces.append((lo, hi))
    return _merge(pieces).total_length
