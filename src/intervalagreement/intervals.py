"""Closed-interval algebra: unions, coverage level sets, and a brute-force oracle.

All operations treat intervals as closed sets but measure lengths, so overlaps
at a single point (touching intervals, zero-width responses) carry no weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import CombinatorialLimit, EmptyCollection, InvalidInterval

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
    ``intervals`` builds the ``Interval`` tuple on first read, and
    ``coverage`` sweeps the collection once for every caller.
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

    @cached_property
    def coverage(self) -> tuple[np.ndarray, np.ndarray]:
        """``coverage_cells`` of this collection, swept on first read and
        shared (read-only) by ``build_iaa`` and ``level_lengths``."""
        coords, counts = coverage_cells(self)
        coords.flags.writeable = counts.flags.writeable = False
        return coords, counts

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


def valid_endpoints(ls: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Mask of the (l, r) pairs ``Interval`` accepts: ordered, with a finite
    width (which also rules out infinite and NaN endpoints)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (ls <= rs) & np.isfinite(rs - ls)


def collection(pairs: Iterable[tuple[float, float]]) -> IntervalCollection:
    """Build a collection from (l, r) pairs, validating each."""
    return IntervalCollection(make_interval(l, r) for l, r in pairs)


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
        return float(sum(seg.length for seg in self.segments))

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

    Coverage is counted on open cells, so touching or zero-width intervals
    never contribute measurable overlap. Raises InvalidInterval when the
    intervals together span more than a float can measure.
    """
    ls, rs = coll.endpoints()
    coords = np.unique(np.concatenate([ls, rs]))
    lo, hi = float(coords[0]), float(coords[-1])
    if not math.isfinite(hi - lo):
        raise InvalidInterval(f"intervals span [{lo}, {hi}], wider than a float can measure")
    if coords.size < 2:
        return coords, np.zeros(0, dtype=np.int64)
    cell_left = coords[:-1]
    counts = np.searchsorted(np.sort(ls), cell_left, side="right") - np.searchsorted(
        np.sort(rs), cell_left, side="right"
    )
    return coords, counts


def runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops) of each maximal run of True in a 1-D mask, stops
    exclusive: run i is ``mask[starts[i]:stops[i]]``."""
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def cells_at_least(edges: np.ndarray, values: np.ndarray, threshold) -> DisjointRegion:
    """Merge adjacent cells whose value reaches `threshold` into closed
    segments; cell j spans ``edges[j]`` to ``edges[j + 1]``."""
    starts, stops = runs(values >= threshold)
    return DisjointRegion(tuple(map(Interval, edges[starts].tolist(), edges[stops].tolist())))


def run_sums(keys: np.ndarray, widths: list[float], size: int) -> np.ndarray:
    """Total width per key 0..size-1, for run widths ordered by key, then by
    position. Each key's widths are added left to right with builtin ``sum``:
    the float operations ``DisjointRegion.total_length`` performs on the
    region of those runs, so both give identical bits (and printed digits).
    A numpy reduction or a suffix sum would reorder the additions."""
    bounds = np.searchsorted(keys, np.arange(size + 1)).tolist()
    return np.array([sum(widths[a:b]) for a, b in zip(bounds, bounds[1:])], dtype=np.float64)


def level_sets(coll: IntervalCollection) -> list[DisjointRegion]:
    """Entry k-1 is the region where at least k of the n intervals overlap.

    Regions are nested and their lengths are the agreement-level lengths the
    ratio measure is built from.
    """
    coords, counts = coll.coverage
    return [cells_at_least(coords, counts, k) for k in range(1, coll.n + 1)]


def _level_runs(at: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(level, coordinate index) for each level lo+1..hi at each index in `at`,
    ordered by level, then by position."""
    reps = hi - lo
    idx = np.repeat(at, reps)
    level = np.repeat(lo + 1 - (np.cumsum(reps) - reps), reps) + np.arange(idx.size)
    order = np.lexsort((idx, level))
    return level[order], idx[order]


def level_lengths(coll: IntervalCollection) -> np.ndarray:
    """Total length per agreement level, index k-1 for level k, in O(n log n).

    Every maximal run of every level comes out of the one coverage sweep: a
    rise in coverage from a to b at a coordinate opens a run for each level
    a+1..b, and a fall from b to a closes them. Runs of one level are
    disjoint, so the i-th opening at level k pairs with its i-th closing, and
    all levels together hold at most n runs, summed by ``run_sums`` to the
    bits of the matching ``level_sets`` region's total length.
    """
    coords, counts = coll.coverage
    padded = np.concatenate([[0], counts, [0]])  # coverage left/right of each coordinate
    step = np.diff(padded)
    rises, falls = np.flatnonzero(step > 0), np.flatnonzero(step < 0)
    level, start = _level_runs(rises, padded[rises], padded[rises + 1])
    _, stop = _level_runs(falls, padded[falls + 1], padded[falls])
    top = int(level[-1]) if level.size else 0
    lengths = np.zeros(coll.n)
    lengths[:top] = run_sums(level - 1, (coords[stop] - coords[start]).tolist(), top)
    return lengths


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
