"""Type-1 membership functions, alpha-cuts, and set attributes.

Four representations are supported: exact step functions (the natural output
of interval aggregation), piecewise-linear shapes, Gaussians, and raw sampled
grids. Alpha-cuts use the closed convention {x | mu(x) >= alpha}. Step
functions get an exact cut path; every other shape is sampled on a uniform
grid, and a cut is the runs of grid points at or above alpha
(:func:`.intervals.runs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySet, InvalidAlpha, InvalidDomain
from .intervals import DisjointRegion, Interval, cells_at_least, runs

DEFAULT_SAMPLES = 1001

GAUSSIAN_WINDOW_SIGMAS = 5.0


class MembershipFunction:
    """Base for all membership representations.

    Subclasses provide vectorised ``membership`` and a bounded ``window``
    over which sampling-based operations discretise.
    """

    def membership(self, x):
        raise NotImplementedError

    def window(self) -> Interval:
        raise NotImplementedError


def _as_float_array(values, name) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def _check_span(arr, name):
    """Reject a first-to-last span too wide for a float: lengths across it read inf."""
    with np.errstate(over="ignore"):
        if not np.isfinite(arr[-1] - arr[0]):
            raise ValueError(f"{name} span [{arr[0]}, {arr[-1]}] is wider than a float can measure")


def _check_unit_range(arr, name):
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PiecewiseConstant(MembershipFunction):
    """Step function: level ``levels[j]`` on the cell between consecutive
    breakpoints, zero outside. At a shared breakpoint the membership is the
    larger of the adjacent cell levels, so closed-interval endpoints keep
    full membership."""

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = _as_float_array(self.breakpoints, "breakpoints")
        lv = _as_float_array(self.levels, "levels")
        if bp.size < 1 or lv.size != bp.size - 1:
            raise ValueError("need m+1 breakpoints for m cells")
        _check_span(bp, "breakpoints")
        if not (bp[1:] > bp[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        _check_unit_range(lv, "levels")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def membership(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        bp, lv = self.breakpoints, self.levels
        if lv.size:
            inside = (x >= bp[0]) & (x <= bp[-1])
            xin = x[inside]
            idx = np.searchsorted(bp, xin, side="right") - 1
            idx = np.minimum(idx, lv.size - 1)
            val = lv[idx]
            on_edge = (xin == bp[idx]) & (idx >= 1)
            val = np.where(on_edge, np.maximum(val, lv[np.maximum(idx - 1, 0)]), val)
            out[inside] = val
        if scalar:
            return float(out[0])
        return out

    def window(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def cut_segments(self, alpha: float) -> DisjointRegion:
        """Exact alpha-cut: merge adjacent cells whose level reaches alpha."""
        return cells_at_least(self.breakpoints, self.levels, alpha)

    def cut_length(self, alpha: float) -> float:
        widths = np.diff(self.breakpoints)
        return float(widths[self.levels >= alpha].sum()) if self.levels.size else 0.0


@dataclass(frozen=True, eq=False)
class PiecewiseLinear(MembershipFunction):
    """Straight-line interpolation through (x, mu) vertices, zero outside.

    Repeated x values model vertical jumps; at such an x the membership is
    the largest of the tied vertex values.
    """

    xs: np.ndarray
    mus: np.ndarray

    def __post_init__(self):
        xs = _as_float_array(self.xs, "xs")
        mus = _as_float_array(self.mus, "mus")
        if xs.size < 2 or mus.size != xs.size:
            raise ValueError("need at least two (x, mu) vertices")
        _check_span(xs, "xs")
        if not (xs[1:] >= xs[:-1]).all():
            raise ValueError("vertex x values must be sorted")
        _check_unit_range(mus, "mus")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "mus", mus)

    def membership(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.interp(x, self.xs, self.mus, left=0.0, right=0.0)
        # closed-cut convention at vertices: exact hits take the max tied value;
        # interp already returns mus[j] at an untied vertex, so only ties are fixed
        tied, counts = np.unique(self.xs, return_counts=True)
        for xv in tied[counts > 1]:
            hits = x == xv
            if hits.any():
                out[hits] = self.mus[self.xs == xv].max()
        if scalar:
            return float(out[0])
        return out

    def window(self) -> Interval:
        return Interval(float(self.xs[0]), float(self.xs[-1]))

    def support_length(self) -> float:
        """Exact length of the mu > 0 region."""
        widths = np.diff(self.xs)
        positive = (self.mus[:-1] > 0) | (self.mus[1:] > 0)
        return float(widths[positive].sum())


def triangular(a: float, b: float, c: float) -> PiecewiseLinear:
    """Triangle rising from a to a peak of 1 at b, back to zero at c."""
    if not a <= b <= c:
        raise ValueError(f"need a <= b <= c, got ({a}, {b}, {c})")
    return PiecewiseLinear(np.array([a, b, c]), np.array([0.0, 1.0, 0.0]))


def trapezoidal(a: float, b: float, c: float, d: float) -> PiecewiseLinear:
    """Trapezoid with plateau of 1 between b and c, feet at a and d."""
    if not a <= b <= c <= d:
        raise ValueError(f"need a <= b <= c <= d, got ({a}, {b}, {c}, {d})")
    return PiecewiseLinear(np.array([a, b, c, d]), np.array([0.0, 1.0, 1.0, 0.0]))


@dataclass(frozen=True, eq=False)
class Gaussian(MembershipFunction):
    """exp(-(x - mean)^2 / (2 stddev^2)), optionally clipped to a domain.

    Without a domain the evaluation window spans mean +/- 5 stddev, beyond
    which membership is below 4e-6; with a domain the window is the
    intersection of the two.
    """

    mean: float
    stddev: float
    domain: Interval | None = None

    def __post_init__(self):
        if not (np.isfinite(self.mean) and np.isfinite(self.stddev)):
            raise ValueError("mean and stddev must be finite")
        if self.stddev <= 0:
            raise ValueError(f"stddev must be positive, got {self.stddev}")
        with np.errstate(over="ignore"):  # membership divides by 2 stddev^2
            two_var = 2.0 * np.float64(self.stddev) ** 2
        if two_var == 0.0:
            raise ValueError(f"stddev {self.stddev} is too small: 2 * stddev**2 underflows to 0")
        if not np.isfinite(two_var):
            raise ValueError(f"stddev {self.stddev} is too large: 2 * stddev**2 overflows")
        lo, hi = self._sigma_window()
        if not lo < hi:
            raise ValueError(
                f"stddev {self.stddev} is below the float resolution of mean {self.mean}: "
                f"mean +/- {GAUSSIAN_WINDOW_SIGMAS} stddev rounds to the mean"
            )
        if self.domain is not None and self.domain.length == 0:
            raise InvalidDomain("Gaussian domain must be non-degenerate")

    def _sigma_window(self) -> tuple[float, float]:
        half = GAUSSIAN_WINDOW_SIGMAS * float(self.stddev)
        return float(self.mean) - half, float(self.mean) + half

    def membership(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        with np.errstate(over="ignore"):  # far in the tails: inf, so exp reads 0
            out = x - self.mean
            np.square(out, out=out)
            np.negative(out, out=out)
            out /= 2.0 * self.stddev**2
        np.exp(out, out=out)
        if self.domain is not None:
            out[(x < self.domain.l) | (x > self.domain.r)] = 0.0
        if scalar:
            return float(out[0])
        return out

    def window(self) -> Interval:
        lo, hi = self._sigma_window()
        if self.domain is not None:
            lo, hi = max(lo, self.domain.l), min(hi, self.domain.r)
        if lo >= hi:
            raise InvalidDomain(
                "Gaussian domain does not overlap the mean +/- "
                f"{GAUSSIAN_WINDOW_SIGMAS} stddev window"
            )
        return Interval(lo, hi)


@dataclass(frozen=True, eq=False)
class Sampled(MembershipFunction):
    """Membership known only on a uniform grid; nearest-point evaluation."""

    xs: np.ndarray
    mus: np.ndarray

    def __post_init__(self):
        xs = _as_float_array(self.xs, "xs")
        mus = _as_float_array(self.mus, "mus")
        if xs.size < 2 or mus.size != xs.size:
            raise ValueError("need at least two grid points")
        _check_span(xs, "xs")
        with np.errstate(over="ignore"):  # an unsorted grid may still overflow a step
            steps = np.diff(xs)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("grid must be uniformly spaced and increasing")
        _check_unit_range(mus, "mus")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "mus", mus)

    @property
    def spacing(self) -> float:
        return float((self.xs[-1] - self.xs[0]) / (self.xs.size - 1))

    def membership(self, x):
        x = np.asarray(x, dtype=np.float64)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        with np.errstate(over="ignore"):  # far off the grid reads +/-inf, masked below
            pos = x - self.xs[0]
            pos /= self.spacing  # in place: a 1M-point grid holds one array fewer
        np.rint(pos, out=pos)
        off = ~((pos >= 0) & (pos < self.mus.size))  # NaN is off the grid too
        np.copyto(pos, 0.0, where=off)  # off-grid positions may not fit an int
        out = np.take(self.mus, pos.astype(np.int64), out=pos)
        np.copyto(out, 0.0, where=off)
        if scalar:
            return float(out[0])
        return out

    def window(self) -> Interval:
        return Interval(float(self.xs[0]), float(self.xs[-1]))


@dataclass(frozen=True)
class AlphaCut:
    """A crisp cut {x | mu(x) >= alpha} in canonical disjoint form."""

    alpha: float
    region: DisjointRegion

    def __post_init__(self):
        _check_alpha(self.alpha)

    @property
    def total_length(self) -> float:
        return self.region.total_length


@dataclass(frozen=True)
class Attributes:
    """Summary attributes of a membership function."""

    height: float
    centroid: float
    support_length: float
    core_length: float


def mu(mf: MembershipFunction, x):
    """Membership of x; exact for analytic forms, nearest-point for sampled."""
    return mf.membership(x)


def _check_alpha(alpha: float):
    if not 0.0 < alpha <= 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1], got {alpha}")


def _check_samples(samples: int):
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")


def sample_grid(mf: MembershipFunction, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate mf on `samples` evenly spaced points over its window,
    endpoints included."""
    _check_samples(samples)
    w = mf.window()
    if not (np.isfinite(w.l) and np.isfinite(w.r)):
        raise InvalidDomain("membership function has no bounded evaluation window")
    xs = np.linspace(w.l, w.r, samples)
    return xs, np.asarray(mf.membership(xs), dtype=np.float64)


def _use_exact(mf, method: str) -> bool:
    if method == "auto":
        return isinstance(mf, PiecewiseConstant)
    if method == "exact":
        if not isinstance(mf, PiecewiseConstant):
            raise ValueError("exact alpha-cuts require a piecewise-constant function")
        return True
    if method == "sampled":
        return False
    raise ValueError(f"method must be auto|exact|sampled, got {method!r}")


def alpha_length(
    mf: MembershipFunction,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> float:
    """Length of the alpha-cut.

    Step functions are measured exactly from their cells; other shapes are
    discretised over the window and scanned for threshold runs, so the
    result can under-read each run by at most two grid steps.
    """
    return float(alpha_lengths(mf, [alpha], samples, method)[0])


def alpha_lengths(
    mf: MembershipFunction,
    alphas: Sequence[float],
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> np.ndarray:
    """alpha_length over a ladder of levels, in any order.

    One call samples the function once, on one grid shared by every level.
    """
    alphas = tuple(alphas)  # read twice: validated, then measured
    for a in alphas:
        _check_alpha(a)
    _check_samples(samples)
    if _use_exact(mf, method):
        return np.array([mf.cut_length(a) for a in alphas])
    return _grid_lengths(*sample_grid(mf, samples), alphas)


def _grid_lengths(xs: np.ndarray, mus: np.ndarray, alphas: Sequence[float]) -> np.ndarray:
    """Sampled cut length at each alpha: the runs of grid points at or above it.

    Cuts are nested, so the levels are visited in ascending order and each
    is scanned only from the previous level's first run start to its last
    run stop; past an empty level every length is 0. The runs found are the
    ones a full-grid scan finds, summed in the same order, so the lengths
    are the same bits.
    """
    lengths = np.zeros(len(alphas))
    lo, hi = 0, mus.size
    for i in np.argsort(alphas, kind="stable"):
        starts, stops = runs(mus[lo:hi] >= alphas[i])
        if not starts.size:
            break
        starts += lo
        stops += lo
        lengths[i] = np.sum(xs[stops - 1] - xs[starts])
        lo, hi = starts[0], stops[-1]
    return lengths


def alpha_cut(
    mf: MembershipFunction,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> AlphaCut:
    """The alpha-cut region itself (alpha_length equals its total length)."""
    _check_alpha(alpha)
    _check_samples(samples)
    if _use_exact(mf, method):
        return AlphaCut(alpha, mf.cut_segments(alpha))
    xs, mus = sample_grid(mf, samples)
    starts, stops = runs(mus >= alpha)
    segs = tuple(map(Interval, xs[starts].tolist(), xs[stops - 1].tolist()))
    return AlphaCut(alpha, DisjointRegion(segs))


def _height(mf: MembershipFunction, mus_grid: np.ndarray) -> float:
    if isinstance(mf, PiecewiseConstant):
        return float(mf.levels.max()) if mf.levels.size else 0.0
    if isinstance(mf, PiecewiseLinear):
        return float(mf.mus.max())
    if isinstance(mf, Gaussian):
        w = mf.window()
        if w.l <= mf.mean <= w.r:
            return 1.0
        return float(max(mf.membership(w.l), mf.membership(w.r)))
    return float(mus_grid.max())


def _support_length(mf: MembershipFunction, xs: np.ndarray, mus_grid: np.ndarray) -> float:
    if isinstance(mf, PiecewiseConstant):
        widths = np.diff(mf.breakpoints)
        return float(widths[mf.levels > 0].sum()) if mf.levels.size else 0.0
    if isinstance(mf, PiecewiseLinear):
        return mf.support_length()
    if isinstance(mf, Gaussian):
        # membership is analytically positive across the whole declared domain
        return mf.domain.length if mf.domain is not None else mf.window().length
    # sampled data: positivity below one quantisation step is noise
    return float(_grid_lengths(xs, mus_grid, [1.0 / xs.size])[0])


def attributes(mf: MembershipFunction, samples: int = DEFAULT_SAMPLES) -> Attributes:
    """Height, centroid, support and core lengths.

    The centroid is the membership-weighted mean over the discretised window
    for every representation, so analytic and sampled sets are directly
    comparable. One call samples the function once: the centroid, the
    height and the sampled core and support lengths all read that grid,
    and they equal what ``alpha_length`` reports at 1 and 1/samples. Step
    functions keep their exact core length. Raises EmptySet when the
    function is identically zero.
    """
    xs, mus_grid = sample_grid(mf, samples)
    weight = float(mus_grid.sum())
    if weight == 0.0:
        raise EmptySet("membership is zero everywhere on the sampling grid; centroid undefined")
    centroid = float((xs * mus_grid).sum() / weight)
    if isinstance(mf, PiecewiseConstant):
        core = mf.cut_length(1.0)
    else:
        core = float(_grid_lengths(xs, mus_grid, [1.0])[0])
    return Attributes(
        height=_height(mf, mus_grid),
        centroid=centroid,
        support_length=_support_length(mf, xs, mus_grid),
        core_length=core,
    )
