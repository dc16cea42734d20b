"""Closed-interval algebra: unions, coverage level sets, and a brute-force oracle.

All operations treat intervals as closed sets but measure lengths, so overlaps
at a single point (touching intervals, zero-width responses) carry no weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.l, other.l), min(self.r, other.r)
        return Interval(lo, hi) if lo <= hi else None


def make_interval(l: float, r: float) -> Interval:
    """Validated constructor; raises InvalidInterval on reversed or non-finite
    endpoints, or on a width too large for a float."""
    return Interval(float(l), float(r))


@dataclass(frozen=True)
class IntervalCollection:
    """One interval per participant, in response order (never sorted)."""

    intervals: tuple[Interval, ...]

    def __init__(self, intervals: Iterable[Interval]):
        object.__setattr__(self, "intervals", tuple(intervals))
        if self.n == 0:
            raise EmptyCollection("a collection needs at least one interval")

    @property
    def n(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) endpoint arrays in participant order."""
        ls = np.array([iv.l for iv in self.intervals], dtype=np.float64)
        rs = np.array([iv.r for iv in self.intervals], dtype=np.float64)
        return ls, rs


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

    def contains(self, x: float) -> bool:
        return any(seg.contains(x) for seg in self.segments)

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


def _cells_at_least(coords: np.ndarray, counts: np.ndarray, k: int) -> DisjointRegion:
    """Merge adjacent cells whose coverage reaches k into closed segments."""
    mask = counts >= k
    if not mask.any():
        return DisjointRegion(())
    padded = np.concatenate([[False], mask, [False]])
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    starts, stops = edges[0::2], edges[1::2]
    return DisjointRegion(
        tuple(Interval(float(coords[a]), float(coords[b])) for a, b in zip(starts, stops))
    )


def level_sets(coll: IntervalCollection) -> list[DisjointRegion]:
    """Entry k-1 is the region where at least k of the n intervals overlap.

    Regions are nested and their lengths are the agreement-level lengths the
    ratio measure is built from.
    """
    coords, counts = coverage_cells(coll)
    return [_cells_at_least(coords, counts, k) for k in range(1, coll.n + 1)]


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
    all levels together hold at most n runs.

    Each level's run lengths are added left to right with builtin ``sum``:
    the float operations ``DisjointRegion.total_length`` performs on the
    matching ``level_sets`` region, so both give identical bits (and printed
    digits). A numpy reduction or a suffix sum would reorder the additions.
    """
    coords, counts = coverage_cells(coll)
    padded = np.concatenate([[0], counts, [0]])  # coverage left/right of each coordinate
    step = np.diff(padded)
    rises, falls = np.flatnonzero(step > 0), np.flatnonzero(step < 0)
    level, start = _level_runs(rises, padded[rises], padded[rises + 1])
    _, stop = _level_runs(falls, padded[falls + 1], padded[falls])
    widths = (coords[stop] - coords[start]).tolist()
    top = int(level[-1]) if level.size else 0
    bounds = np.searchsorted(level, np.arange(1, top + 2)).tolist()
    lengths = np.zeros(coll.n)
    lengths[:top] = [sum(widths[a:b]) for a, b in zip(bounds, bounds[1:])]
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
