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

DEFAULT_CUTS = 10
NO_WIDTH = "every source has zero width; no lengths to compare"
EMPTY_CUT = "the lowest alpha-cut (alpha = 1/{}) has zero length; no lengths to compare"


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


def gamma_sums(lengths: np.ndarray, size: np.ndarray):
    """γ, ratios, weights and weight sums of cells whose level lengths lie cell
    after cell, ``size`` per cell, lowest level first. A ratio is a length over
    the one below's, or 0 where that has no length or the level is its cell's
    first; a cell's weighted ratios are added left to right from 0.0
    (``run_sums``), as ``np.cumsum`` adds them, over its pairwise weight sum."""
    sizes = size.tolist()
    table = {c: np.arange(1, c + 1) / c for c in set(sizes)}  # level i of c weighs i/c
    sums = {c: w[1:].sum() for c, w in table.items()}
    # one cell keeps its table: a copy read 0.3-0.5 MB more gamma-large peak RSS
    weights = table[sizes[0]] if len(sizes) == 1 else np.concatenate([table[c] for c in sizes])
    weight_sum = np.array([sums[c] for c in sizes])
    prev = lengths[:-1]
    below = prev > 0.0
    below[np.cumsum(size)[:-1] - 1] = False  # a cell's first level is over the last cell's top
    ratios = np.divide(lengths[1:], prev, out=np.zeros(prev.size), where=below)
    cell = np.repeat(np.arange(size.size), size)[1:]
    return run_sums(cell, weights[1:] * ratios, size.size) / weight_sum, ratios, weights, weight_sum


def _breakdown(lengths: np.ndarray, empty: str = NO_WIDTH) -> GammaBreakdown:
    """Assemble the ratio from level lengths (index 0 = lowest level) with
    ``gamma_sums``; a lowest length of 0 raises EmptySupport(``empty``)."""
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths[0] == 0.0:
        raise EmptySupport(empty)
    (gamma,), ratios, weights, (weight_sum,) = gamma_sums(lengths, np.array([lengths.size]))
    return GammaBreakdown(float(gamma), lengths, weights[1:], ratios, float(weight_sum))


def gamma_exact(coll: IntervalCollection) -> GammaBreakdown:
    """Agreement ratio of an interval collection, from exact level-set lengths."""
    if coll.n < 2:
        raise TooFewSources(f"agreement needs at least 2 intervals, got {coll.n}")
    return _breakdown(level_lengths(coll))


def _check_cuts(cuts: int):
    if cuts < 2:
        raise InvalidCuts(f"need at least 2 alpha cuts, got {cuts}")


def gamma_alpha(
    mf: MembershipFunction,
    cuts: int = DEFAULT_CUTS,
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> GammaBreakdown:
    """Agreement ratio of an arbitrary membership function via alpha-cuts.

    Cut levels and weights are both i/cuts for i = 1..cuts, so on an
    aggregation-built step function with cuts equal to the participant count
    this reproduces gamma_exact. Cut lengths come from ``alpha_lengths``:
    closed forms for step, piecewise-linear and Gaussian shapes, unless
    method="sampled" forces the discretised scan. A lowest cut of zero length
    raises EmptySupport naming that cut.
    """
    _check_cuts(cuts)
    lengths = alpha_lengths(mf, np.arange(1, cuts + 1) / cuts, samples=samples, method=method)
    return _breakdown(lengths, EMPTY_CUT.format(cuts))


def jaccard(
    a: MembershipFunction, b: MembershipFunction, samples: int = DEFAULT_SAMPLES
) -> float:
    """Sum of pointwise minima over sum of pointwise maxima on a shared grid.

    The grid spans the union of both evaluation windows; ``walk_grid`` gives
    both sums, bit-equal to ``np.sum`` over the whole grid, in O(GRID_CHUNK)
    memory. Raises EmptySet when both functions are zero everywhere on it.
    """
    _check_samples(samples)
    num, denom = walk_grid(  # both written in place: the walk's buffers are the leaf's to use
        [a, b], samples,
        lambda xs, ma, mb: (np.minimum(ma, mb, out=xs).sum(), np.maximum(ma, mb, out=ma).sum()))
    if denom == 0.0:
        raise EmptySet("both membership functions are empty on the shared grid")
    return float(num / denom)
