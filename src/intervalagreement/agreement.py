"""Agreement ratio and Jaccard similarity over membership functions.

The ratio compares the lengths of successive agreement levels: each level i
contributes its length divided by the next lower level's length, weighted by
i/n, and the weighted mean of those ratios is the agreement. Level 1 carries
no weight of its own because agreement needs at least two overlapping
sources. A zero lower length forces the upper one to zero too (level sets
are nested), and such a term contributes 0, not 0/0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, EmptySupport, InvalidCuts, TooFewSources
from .fuzzyset import DEFAULT_SAMPLES, MembershipFunction, _check_samples, alpha_lengths, walk_grid
from .intervals import IntervalCollection, level_lengths, run_sums

__all__ = ["GammaTerm", "GammaBreakdown", "gamma_exact", "gamma_alpha", "jaccard"]


@dataclass(frozen=True)
class GammaTerm:
    """One weighted level comparison: weight * (length / prev_length)."""

    weight: float
    length: float
    prev_length: float
    ratio: float


@dataclass(frozen=True, eq=False)
class GammaBreakdown:
    """Agreement ratio plus the per-level arrays it was assembled from.

    ``lengths`` holds every level length (index 0 = lowest level); entry i of
    ``weights`` and ``ratios`` belongs to the comparison of level i+2 with
    level i+1.
    """

    gamma: float
    lengths: np.ndarray
    weights: np.ndarray
    ratios: np.ndarray
    weight_sum: float

    @property
    def terms(self) -> tuple[GammaTerm, ...]:
        """One GammaTerm per level comparison, lowest first."""
        return tuple(
            map(
                GammaTerm,
                self.weights.tolist(),
                self.lengths[1:].tolist(),
                self.lengths[:-1].tolist(),
                self.ratios.tolist(),
            )
        )


def gamma_sums(lengths: np.ndarray, weights: np.ndarray, size: np.ndarray):
    """Ratios and γ numerators of cells whose level lengths and weights lie
    cell after cell, ``size`` per cell, lowest level first. A level's ratio is
    its length over the one below's, or 0 where that has no length or the
    level is its cell's first; the weighted ratios of a cell are added left to
    right from 0.0 (``run_sums``), as ``np.cumsum`` adds them."""
    prev = lengths[:-1]
    below = prev > 0.0
    below[np.cumsum(size)[:-1] - 1] = False  # a cell's first level is over the last cell's top
    ratios = np.divide(lengths[1:], prev, out=np.zeros(prev.size), where=below)
    cell = np.repeat(np.arange(size.size), size)[1:]
    return ratios, run_sums(cell, weights[1:] * ratios, size.size)


def _breakdown(lengths: np.ndarray, weights: np.ndarray) -> GammaBreakdown:
    """Assemble the ratio from level lengths (index 0 = lowest level): the
    ``gamma_sums`` numerator over the weight sum (``np.sum`` is pairwise, and
    builtin ``sum`` compensates from Python 3.12 on)."""
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths[0] == 0.0:
        raise EmptySupport("every source has zero width; no lengths to compare")
    ratios, (num,) = gamma_sums(lengths, weights, np.array([lengths.size]))
    weight_sum = float(weights[1:].sum())
    return GammaBreakdown(float(num / weight_sum), lengths, weights[1:], ratios, weight_sum)


def gamma_exact(coll: IntervalCollection) -> GammaBreakdown:
    """Agreement ratio of an interval collection, from exact level-set lengths."""
    if coll.n < 2:
        raise TooFewSources(f"agreement needs at least 2 intervals, got {coll.n}")
    return _breakdown(level_lengths(coll), np.arange(1, coll.n + 1) / coll.n)


def _check_cuts(cuts: int):
    if cuts < 2:
        raise InvalidCuts(f"need at least 2 alpha cuts, got {cuts}")


def gamma_alpha(
    mf: MembershipFunction,
    cuts: int = 10,
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> GammaBreakdown:
    """Agreement ratio of an arbitrary membership function via alpha-cuts.

    Cut levels and weights are both i/cuts for i = 1..cuts, so on an
    aggregation-built step function with cuts equal to the participant count
    this reproduces gamma_exact. Cut lengths come from ``alpha_lengths``:
    closed forms for step, piecewise-linear and Gaussian shapes, unless
    method="sampled" forces the discretised scan.
    """
    _check_cuts(cuts)
    alphas = np.arange(1, cuts + 1) / cuts
    return _breakdown(alpha_lengths(mf, alphas, samples=samples, method=method), alphas)


def jaccard(
    a: MembershipFunction, b: MembershipFunction, samples: int = DEFAULT_SAMPLES
) -> float:
    """Sum of pointwise minima over sum of pointwise maxima on a shared grid.

    The grid spans the union of both evaluation windows; ``walk_grid`` gives
    both sums, bit-equal to ``np.sum`` over the whole grid, in O(GRID_CHUNK)
    memory. Raises EmptySet when both functions are zero everywhere on it.
    """
    _check_samples(samples)
    num, denom = walk_grid(
        [a, b], samples, lambda xs, ma, mb: (np.minimum(ma, mb).sum(), np.maximum(ma, mb).sum())
    )
    if denom == 0.0:
        raise EmptySet("both membership functions are empty on the shared grid")
    return float(num / denom)
