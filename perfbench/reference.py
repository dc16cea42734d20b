"""Referees for the benchmark's output checks.

Two kinds, kept apart on purpose:

* ``seed_report_csv`` / ``seed_gamma_text`` reproduce, bit for bit, the bytes
  the package printed for ``iaa report`` and ``iaa gamma`` (exact mode) when
  the benchmark was written. They follow the same float operations in the
  same order, so a later change that alters any printed byte is caught.
* ``oracle_*`` are independent O(n log n) computations (bincount of cell
  widths by coverage count, then a suffix sum) and closed forms, used to
  check values within a tolerance.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

TERM_ORDER = ("ITD", "ED", "MD", "ALBD", "NAAD")
REPORT_SAMPLES = 1001


def parse_survey(text: str) -> list[tuple[str, str, float, float]]:
    """(group, term, l, r) per row, as ``iaa report`` reads them."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    return [(g.strip(), t.strip(), float(l), float(r)) for g, _, t, l, r in reader]


def parse_pairs(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Left and right endpoints of an ``l,r`` interval list."""
    pairs = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()])
    return pairs[:, 0], pairs[:, 1]


def survey_cells(records):
    """((group, term), ls, rs) per report cell, stored groups then ALL."""
    by_cell: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for g, t, l, r in records:
        by_cell.setdefault((g, t), []).append((l, r))
        by_cell.setdefault(("ALL", t), []).append((l, r))
    groups = list(dict.fromkeys(g for g, _, _, _ in records))
    seen = list(dict.fromkeys(t for _, t, _, _ in records))
    terms = [t for t in TERM_ORDER if t in seen] + [t for t in seen if t not in TERM_ORDER]
    cells = []
    for group in (*groups, "ALL"):
        for term in terms:
            ends = by_cell.get((group, term), [])
            if len(ends) >= 2:
                ls, rs = np.array(ends).T
                cells.append(((group, term), ls, rs))
    return cells


# -- bit-exact reproduction of the package's printed values ----------------


def _coverage(ls: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    coords = np.unique(np.concatenate([ls, rs]))
    if coords.size < 2:
        return coords, np.zeros(0, dtype=np.int64)
    counts = np.searchsorted(np.sort(ls), coords[:-1], side="right") - np.searchsorted(
        np.sort(rs), coords[:-1], side="right"
    )
    return coords, counts


def _seed_level_lengths(coords: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    # Each level's length is the left-to-right Python sum of its merged run
    # lengths, exactly as the package measures a DisjointRegion.
    top = int(counts.max()) if counts.size else 0
    lengths = np.zeros(n)
    for k in range(1, top + 1):
        padded = np.concatenate([[False], counts >= k, [False]])
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        lengths[k - 1] = float(sum((coords[edges[1::2]] - coords[edges[0::2]]).tolist()))
    return lengths


def _seed_breakdown(lengths: np.ndarray):
    n = lengths.size
    weights = np.arange(1, n + 1) / n
    prev = lengths[:-1]
    ratios = np.divide(lengths[1:], prev, out=np.zeros(n - 1), where=prev > 0.0)
    weight_sum = float(weights[1:].sum())
    gamma = sum((weights[1:] * ratios).tolist()) / weight_sum
    return gamma, weights[1:], ratios


def _seed_membership(bp: np.ndarray, lv: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    if lv.size:
        inside = (x >= bp[0]) & (x <= bp[-1])
        xin = x[inside]
        idx = np.minimum(np.searchsorted(bp, xin, side="right") - 1, lv.size - 1)
        val = lv[idx]
        on_edge = (xin == bp[idx]) & (idx >= 1)
        out[inside] = np.where(on_edge, np.maximum(val, lv[np.maximum(idx - 1, 0)]), val)
    return out


def _g6(value: float) -> str:
    return format(float(value), ".6g")


def seed_report_csv(text: str) -> str:
    """The bytes ``iaa report`` (exact, CSV) prints for this survey text."""
    lines = ["group,term,height,centroid,agreement_ratio"]
    for (group, term), ls, rs in survey_cells(parse_survey(text)):
        coords, counts = _coverage(ls, rs)
        levels = counts / ls.size
        height = float(levels.max()) if levels.size else 0.0
        xs = np.linspace(float(coords[0]), float(coords[-1]), REPORT_SAMPLES)
        mus = _seed_membership(coords, levels, xs)
        centroid = float((xs * mus).sum() / float(mus.sum()))
        gamma, _, _ = _seed_breakdown(_seed_level_lengths(coords, counts, ls.size))
        lines.append(f"{group},{term},{_g6(height)},{_g6(centroid)},{_g6(gamma)}")
    return "\n".join(lines) + "\n"


def seed_gamma_text(text: str) -> str:
    """The bytes ``iaa gamma`` (exact) prints for this interval list."""
    ls, rs = parse_pairs(text)
    lengths = _seed_level_lengths(*_coverage(ls, rs), ls.size)
    gamma, weights, ratios = _seed_breakdown(lengths)
    out = [f"{gamma:.6f}"]
    for i in range(1, lengths.size):
        out.append(
            f"level {i + 1}: weight={weights[i - 1]:.6f} length={lengths[i]:.6f} "
            f"prev={lengths[i - 1]:.6f} ratio={ratios[i - 1]:.6f}"
        )
    return "\n".join(out) + "\n"


# -- independent oracles ---------------------------------------------------


def gamma_from_lengths(lengths: np.ndarray, weights: np.ndarray) -> float:
    """Weighted mean of successive level ratios (level 1 carries no weight)."""
    prev = lengths[:-1]
    ratios = np.divide(lengths[1:], prev, out=np.zeros(prev.size), where=prev > 0.0)
    return float(np.dot(weights[1:], ratios) / weights[1:].sum())


def oracle_level_lengths(ls: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """Length of {x : at least k intervals cover x} for k = 1..n, in O(n log n).

    An event sweep gives each open cell's coverage count; cell widths are
    summed per count and a suffix sum turns "exactly k" into "at least k".
    """
    n = ls.size
    coords, inverse = np.unique(np.concatenate([ls, rs]), return_inverse=True)
    net = np.bincount(inverse, weights=np.repeat([1.0, -1.0], n), minlength=coords.size)
    counts = np.rint(np.cumsum(net)[:-1]).astype(np.int64)
    per_count = np.bincount(counts, weights=np.diff(coords), minlength=n + 1)
    return np.cumsum(per_count[::-1])[::-1][1 : n + 1]


def oracle_gamma(ls: np.ndarray, rs: np.ndarray) -> float:
    n = ls.size
    return gamma_from_lengths(oracle_level_lengths(ls, rs), np.arange(1, n + 1) / n)


def run_lengths(xs: np.ndarray, mus: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Per threshold, total length of maximal grid runs with mu >= alpha."""
    out = np.empty(alphas.size)
    for j, alpha in enumerate(alphas):
        mask = mus >= alpha
        starts = np.flatnonzero(mask & ~np.concatenate([[False], mask[:-1]]))
        stops = np.flatnonzero(mask & ~np.concatenate([mask[1:], [False]]))
        out[j] = (xs[stops] - xs[starts]).sum()
    return out


def gaussian_cut_length(stddev: float, alpha: float) -> float:
    return 2.0 * stddev * math.sqrt(-2.0 * math.log(alpha))


def linear_cut_length(xs, alpha: float) -> float:
    """Cut length of a triangle (a, b, c) or trapezoid (a, b, c, d) given its vertex xs."""
    a, b, c, d = xs[0], xs[1], xs[-2], xs[-1]
    return (d - a) - alpha * ((b - a) + (d - c))


def linear_centroid(xs, mus) -> float:
    """Exact centroid of a piecewise-linear membership function."""
    area = moment = 0.0
    for x0, x1, m0, m1 in zip(xs, xs[1:], mus, mus[1:]):
        area += (x1 - x0) * (m0 + m1) / 2.0
        moment += (x1 - x0) * (x0 * (2 * m0 + m1) + x1 * (m0 + 2 * m1)) / 6.0
    return moment / area
