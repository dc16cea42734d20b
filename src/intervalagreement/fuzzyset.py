"""Type-1 membership functions, alpha-cuts, and set attributes.

Four representations are supported: exact step functions (the natural output
of interval aggregation), piecewise-linear shapes, Gaussians, and raw sampled
grids. Alpha-cuts use the closed convention {x | mu(x) >= alpha}. Step,
piecewise-linear and Gaussian shapes measure their cuts, height and support
in closed form. A sampled grid, or any shape under ``method="sampled"``, is
evaluated on a uniform grid over its window, and a cut is the runs of grid
points at or above alpha (:func:`.intervals.ladder_runs`); such a cut length
is off the true one by at most two grid steps per run of the cut. A grid is
walked GRID_CHUNK points at a time (:func:`walk_grid`): sums bit-equal to ``np.sum``
over it whole, and memory O(chunk) for cuts too, as each chunk's cut runs are found in
it and joined at chunk edges (:func:`_grid_runs`). A ``Sampled`` grid's cuts on a grid
finer than its own are not walked: its own points are cut once, and each run is mapped
to the grid points that read it (``Sampled._source_runs``), in time and memory that
grow with its points and runs, not with `samples`. A chunk's points ascend, so
``_on_grid`` may take them by slices; it gives ``_membership``'s bits. A step
function's values are one :func:`step_table`, read by :func:`step_at`; ``survey.report``
walks a block's cells through one table, a grid row per cell (:func:`walk_linspace`), and
places a row's runs, as ``_on_grid`` does, from each breakpoint's first grid point, found
by a guess from the step that :func:`_first_reaching` checks, as ``Sampled`` finds its
run edges' walk points.

Every path yields (alpha index, left, right) runs, by alpha, then left to
right; :func:`.intervals.run_sums` adds them into lengths and
:func:`.intervals.run_regions` builds the regions, so each cut's length is its
region's ``total_length`` to the bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySet, InvalidAlpha, InvalidDomain
from .intervals import DisjointRegion, Interval, ladder_runs, run_regions, run_sums

DEFAULT_SAMPLES = 1001

GAUSSIAN_WINDOW_SIGMAS = 5.0
GRID_CHUNK = 1 << 15  # walk_grid's points per step: a few such arrays stay in cache
# at least 128, numpy's pairwise-summation block, or pairwise_sums' leaves lose np.sum's bits
# PiecewiseConstant._on_grid slices a chunk, and survey._report_block places a cell's grid
# row, from this many points per breakpoint on; below it a breakpoint search is cheaper
STEP_POINTS_PER_BREAKPOINT = 4
_EDGE_CHECKS = 4  # checks of a guessed grid index before _first_reaching gives it up
ZERO_MEMBERSHIP = "membership is zero everywhere on the sampling grid; centroid undefined"


class MembershipFunction:
    """Base for all membership representations.

    Subclasses provide ``_membership`` of a float array and a bounded
    ``window`` over which sampling-based operations discretise. Closed-form
    shapes set ``closed_form`` and give exact ``height()``,
    ``support_length()`` and ``_cut_runs(alphas)``: (alpha index, left,
    right) of every maximal run of every cut, by alpha, then left to right.
    """

    closed_form = False

    def membership(self, x):
        """mu at each x, vectorised; a scalar x gives a float."""
        x = np.asarray(x, dtype=np.float64)
        out = self._membership(np.atleast_1d(x))
        return float(out[0]) if x.ndim == 0 else out

    def _on_grid(self, x):
        return self._membership(x)

    def window(self) -> Interval:
        raise NotImplementedError

    def _source_runs(self, alphas: np.ndarray, samples: int):
        """``_runs`` of the `samples` grid points found without walking the grid, or None:
        the grid is walked."""
        return None


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


def step_table(levels) -> np.ndarray:
    """Values of a step function on ``levels.size + 1`` breakpoints: 0, then each breakpoint's
    (the larger of its cells' levels) and the level of the cell after it (0 after the last)."""
    steps = np.zeros(2 * levels.size + 3)
    if levels.size:
        steps[2:-1:2] = levels
        steps[1::2] = np.concatenate([levels[:1], np.maximum(levels[1:], levels[:-1]), levels[-1:]])
    return steps


def step_at(steps, bp, r, x) -> np.ndarray:
    """``steps`` at each x, ``r = bp.searchsorted(x, "right")``: breakpoint ``r - 1``'s value
    on it, else its cell's level; before ``bp[0]``, past ``bp[-1]`` and at NaN, a 0 entry."""
    return steps[2 * r - (bp[r - 1] == x)]


def _check_unit_range(arr, name):
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class PiecewiseConstant(MembershipFunction):
    """Step function: level ``levels[j]`` on the cell between consecutive breakpoints,
    zero outside; at a shared breakpoint, the larger of the adjacent cell levels, so
    closed-interval endpoints keep full membership. ``_membership`` reads its
    ``step_table`` by ``step_at``, ``_on_grid`` an entry per run of a chunk."""

    breakpoints: np.ndarray
    levels: np.ndarray
    closed_form = True

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
        object.__setattr__(self, "_steps", step_table(lv))

    def _membership(self, x):
        return step_at(self._steps, self.breakpoints, self.breakpoints.searchsorted(x, "right"), x)

    def _on_grid(self, x):
        """``_membership``'s bits by slices: the breakpoints within the ascending ``x``
        are placed in it, and each run between them, or on one, takes its value. Under
        STEP_POINTS_PER_BREAKPOINT points per such breakpoint, ``_membership`` is cheaper."""
        bp = self.breakpoints
        i, j = bp.searchsorted(x[0], "left"), bp.searchsorted(x[-1], "right")
        if (j - i) * STEP_POINTS_PER_BREAKPOINT > x.size:
            return self._membership(x)
        edges = np.empty(2 * (j - i) + 2, np.intp)
        edges[0], edges[-1] = 0, x.size
        edges[1:-1:2] = np.searchsorted(x, bp[i:j], "left")
        edges[2:-1:2] = np.searchsorted(x, bp[i:j], "right")
        return np.repeat(self._steps[2 * i : 2 * j + 1], np.diff(edges))

    def window(self) -> Interval:
        return Interval(float(self.breakpoints[0]), float(self.breakpoints[-1]))

    def height(self) -> float:
        return float(self.levels.max()) if self.levels.size else 0.0

    def support_length(self) -> float:
        widths = np.diff(self.breakpoints)
        return float(widths[self.levels > 0].sum())

    def _cut_runs(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Runs of adjacent cells whose level reaches alpha; cell j spans
        ``breakpoints[j]`` to ``breakpoints[j + 1]``."""
        col, start, stop = ladder_runs(self.levels, alphas)
        return col, self.breakpoints[start], self.breakpoints[stop]


@dataclass(frozen=True, eq=False)
class PiecewiseLinear(MembershipFunction):
    """Straight-line interpolation through (x, mu) vertices, zero outside.

    Repeated x values model vertical jumps; at such an x the membership is
    the largest of the tied vertex values.
    """

    xs: np.ndarray
    mus: np.ndarray
    closed_form = True

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
        # each distinct x, its max tie, np.interp's segment on to the next, and the tied rows
        ux, first, counts = np.unique(xs, return_index=True, return_counts=True)
        last, top = first + counts - 1, np.maximum.reduceat(mus, first)
        with np.errstate(over="ignore"):  # a subnormal width: inf, never read off a vertex
            slopes = (mus[first[1:]] - mus[last[:-1]]) / np.diff(ux)
        tied = np.flatnonzero(counts > 1)
        object.__setattr__(self, "_vertices", (ux, top, mus[last[:-1]], slopes, tied))

    def _membership(self, x):
        """np.interp, which gives an untied vertex its own mu, and on each tied vertex, found
        by one search of the tied rows' x, its max-of-ties value (the closed-cut convention)."""
        out = np.interp(x, self.xs, self.mus, left=0.0, right=0.0)
        ux, top, _, _, tied = self._vertices
        if tied.size:
            at = tied[ux[tied].searchsorted(x, "right") - 1]  # -1 (x before every tie): the last
            hit = ux[at] == x
            out[hit] = top[at[hit]]
        return out

    def _on_grid(self, x):
        """np.interp's bits by slices: ``(x - x0) * slope + y0`` strictly inside each
        segment, the max-of-ties value on each vertex. A segment's calls cost what np.interp
        spends on ~1000 points, so under 2048 points per distinct vertex take ``_membership``."""
        ux, top, y0, slopes, _ = self._vertices
        if ux.size * 2048 > x.size:
            return self._membership(x)
        lo, hi = np.searchsorted(x, ux, "left").tolist(), np.searchsorted(x, ux, "right").tolist()
        out = np.empty(x.size)
        out[: lo[0]] = out[hi[-1] :] = 0.0  # before the first vertex and after the last
        for k in range(ux.size - 1):
            seg = np.subtract(x[hi[k] : lo[k + 1]], ux[k], out=out[hi[k] : lo[k + 1]])
            seg *= slopes[k]
            seg += y0[k]
        for k in range(ux.size):
            out[lo[k] : hi[k]] = top[k]
        return out

    def window(self) -> Interval:
        return Interval(float(self.xs[0]), float(self.xs[-1]))

    def support_length(self) -> float:
        """Exact length of the mu > 0 region."""
        widths = np.diff(self.xs)
        positive = (self.mus[:-1] > 0) | (self.mus[1:] > 0)
        return float(widths[positive].sum())

    def height(self) -> float:
        return float(self.mus.max())

    def _cut_runs(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment j's piece is where its line is >= alpha; a vertical jump's
        piece is the point itself when either end reaches alpha (the
        max-of-ties rule). Pieces are ordered and meet only at vertices, so,
        as in ``intervals._merge``, a piece opens a run unless it touches
        the piece before it."""
        x0, x1 = self.xs[:-1, None], self.xs[1:, None]
        m0, m1 = self.mus[:-1, None], self.mus[1:, None]
        in0, in1 = m0 >= alphas, m1 >= alphas
        t = np.divide(alphas - m0, m1 - m0, out=np.zeros(in0.shape), where=in0 != in1)
        at = np.clip(x0 + (x1 - x0) * t, x0, x1)
        col, seg = np.nonzero((in0 | in1).T)
        lefts, rights = np.where(in0, x0, at)[seg, col], np.where(in1, x1, at)[seg, col]
        opens = np.ones(col.size, dtype=bool)
        opens[1:] = (col[1:] != col[:-1]) | (lefts[1:] > rights[:-1])
        return col[opens], lefts[opens], rights[np.roll(opens, -1)]


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
    closed_form = True

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

    def _membership(self, x):
        with np.errstate(over="ignore"):  # far in the tails: inf, so exp reads 0
            out = x - self.mean
            np.square(out, out=out)
            out /= -(2.0 * self.stddev**2)  # -a / b is a / -b, bar a NaN's sign: one pass fewer
        np.exp(out, out=out)
        if self.domain is not None:
            out[(x < self.domain.l) | (x > self.domain.r)] = 0.0
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

    def height(self) -> float:
        w = self.window()  # the peak, or the window end nearest to it
        return float(self.membership(min(max(self.mean, w.l), w.r)))

    def support_length(self) -> float:
        # membership is analytically positive across the whole declared domain
        return self.domain.length if self.domain is not None else self.window().length

    def _cut_runs(self, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mean +/- stddev sqrt(-2 ln alpha), clipped to the domain; without
        one, to the window, as the sampled path clips it."""
        w = self.domain if self.domain is not None else self.window()
        half = self.stddev * np.sqrt(-2.0 * np.log(alphas))
        lo, hi = np.maximum(self.mean - half, w.l), np.minimum(self.mean + half, w.r)
        col = np.flatnonzero(lo <= hi)
        return col, lo[col], hi[col]


@dataclass(frozen=True, eq=False)
class Sampled(MembershipFunction):
    """Membership known only on a uniform grid; nearest-point evaluation.

    A cut on a `samples`-point grid over its window finer than its own is found on its own
    points and mapped to the grid points that read them (``_source_runs``), bit-equal to
    walking that grid, in time and memory independent of `samples`; a grid no finer, and
    its centroid and height, are walked."""

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

    def _positions(self, x):
        with np.errstate(over="ignore"):  # nearest grid index; far off the grid, +/-inf
            pos = x - self.xs[0]
            pos /= self.spacing  # in place: a 1M-point grid holds one array fewer
        return np.rint(pos, out=pos)

    def _membership(self, x):
        pos = self._positions(x)
        off = ~((pos >= 0) & (pos < self.mus.size))  # NaN is off the grid too
        np.copyto(pos, 0.0, where=off)  # off-grid positions may not fit an int
        out = np.take(self.mus, pos.astype(np.int64), out=pos)
        np.copyto(out, 0.0, where=off)
        return out

    def _on_grid(self, x):
        """Ascending x: the off-grid points are a prefix and a suffix; the rest
        index in range, so take may "clip" (no buffered bounds check)."""
        out = self._positions(x)
        a, b = np.searchsorted(out, [0, self.mus.size]).tolist()
        out[:a] = out[b:] = 0.0
        np.take(self.mus, out[a:b].astype(np.intp), out=out[a:b], mode="clip")
        return out

    def window(self) -> Interval:
        return Interval(float(self.xs[0]), float(self.xs[-1]))

    def _source_runs(self, alphas: np.ndarray, samples: int):
        """The walk's runs, bit for bit, from ``ladder_runs`` of the source points: walk
        point i reads ``mus[p(i)]`` (0 off the grid), p(i) its ``_positions``, which never
        fall as i grows (monotone float steps; the last point is checked). So a source run
        [s, e) is read by the walk points [I(s), I(e)), I(v) the first whose position
        reaches v; empty ranges are dropped, touching ones joined. None (walk the grid)
        if an I(v) is not settled, or if the grid has no more points than the source: its
        walk then reads fewer points than the source holds."""
        if samples <= self.mus.size:
            return None
        col, start, stop = ladder_runs(self.mus, alphas)
        if not (self._walk_points(start, samples) and self._walk_points(stop, samples)):
            return None
        keep = start < stop
        return _point_runs(self, samples, col[keep], start[keep], stop[keep])

    def _walk_points(self, v: np.ndarray, samples: int) -> bool:
        """Set each source index in v to I(v) (`samples` if no point reaches it), GRID_CHUNK
        at a time: a guess by the grids' ratio, stepped until p(I - 1) < v <= p(I), p by the
        walk's own ``linspace_at`` and ``_positions`` (``_first_reaching``). False if p falls
        at the last point or an I(v) is not settled."""
        w, div = self.window(), samples - 1
        def p(i):
            return self._positions(linspace_at(w.l, w.r, samples, i))
        if not np.diff(p(np.array([div - 1, div])))[0] >= 0:  # NaN too
            return False
        rate = div / (self.mus.size - 1)  # grid steps per source step
        for a in range(0, v.size, GRID_CHUNK):
            edges = v[a : a + GRID_CHUNK]
            i = np.clip(np.ceil((edges - 0.5) * rate), 0, samples).astype(np.intp)
            if not _first_reaching(p, edges, i, samples).all():
                return False
            edges[:] = i
        return True


def _first_reaching(p, v, i, n: int) -> np.ndarray:
    """Step each guess i in [0, n] to I(v), the first index whose ``p`` reaches v (n if
    none), ``p`` ascending on 0..n-1, until p(I - 1) < v <= p(I), in at most _EDGE_CHECKS
    checks; whether each settled."""
    settled = np.zeros(i.shape, bool)
    for _ in range(_EDGE_CHECKS):
        reach = (p(np.minimum(i, n - 1)) >= v) | (i == n)
        first = (p(np.maximum(i - 1, 0)) < v) | (i == 0)
        settled = reach & first
        if settled.all():
            break
        i += ~reach  # p(I) < v: one point right
        i -= ~first  # p(I - 1) >= v: one point left
    return settled


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
    """Evaluate mf on `samples` evenly spaced points over its window, endpoints
    included, whole; ``walk_grid`` sums them in O(chunk), bit-equal to ``np.sum``."""
    _check_samples(samples)
    w = mf.window()
    if not (np.isfinite(w.l) and np.isfinite(w.r)):
        raise InvalidDomain("membership function has no bounded evaluation window")
    xs = np.linspace(w.l, w.r, samples)
    return xs, np.asarray(mf.membership(xs), dtype=np.float64)


def linspace_at(lo, hi, samples: int, i: np.ndarray) -> np.ndarray:
    """``np.linspace(lo, hi, samples)[i]`` by linspace's own rule: ``i * step +
    lo``, ``i / div * delta + lo`` if the step underflows to 0, ``hi`` last. Column
    ``lo`` and ``hi`` give a row each, by the rule its own ``np.linspace`` takes."""
    div, delta = samples - 1, np.float64(hi) - lo
    step = delta / div
    flat = not (step.all() if step.ndim else step)  # a numpy scalar: .all() 3 µs, bool() 0.1 µs
    x = np.where(step != 0, i * step, i / div * delta) if flat else i * step
    x += lo
    if i.size and i.max() == div:  # cheaper than a mask over every chunk
        np.copyto(x, hi, where=i == div)  # x[..., mask] = hi would take 10x as long
    return x


def pairwise_sums(n: int, leaf, start: int = 0) -> tuple:
    """``np.sum``'s bits over n values: ``leaf(a, b)`` gives tuples of ``np.sum``
    over values a..b-1 (at most GRID_CHUNK) left to right, added as ``np.sum``
    splits: the first ``n//2 - (n//2) % 8`` values, then the rest. A list entry
    is concatenated instead, so it lists the leaves' items left to right."""
    if n <= GRID_CHUNK:
        return leaf(start, start + n)
    half = n // 2 - (n // 2) % 8
    left, right = pairwise_sums(half, leaf, start), pairwise_sums(n - half, leaf, start + half)
    return tuple(s + t for s, t in zip(left, right))


@functools.lru_cache
def _leaf_points(n: int, chunk: int) -> int:
    """The most values a ``pairwise_sums`` leaf over n values holds, at most `chunk`."""
    if n <= chunk:
        return n
    half = n // 2 - (n // 2) % 8
    return max(_leaf_points(half, chunk), _leaf_points(n - half, chunk))


def walk_linspace(lo, hi, samples: int, leaf) -> tuple:
    """``pairwise_sums`` of ``leaf(xs, a, b)``, xs points a..b-1 of ``np.linspace(lo, hi,
    samples)``: a row per entry of column ``lo`` and ``hi``, as ``linspace_at`` gives them.
    A leaf may overwrite xs but must not keep it: scalar ends with a step that does not
    underflow write each chunk's points into one buffer held for the walk, by
    ``linspace_at``'s own arithmetic, ``hi`` last in the chunk that holds the end."""
    base = np.arange(_leaf_points(samples, GRID_CHUNK), dtype=np.float64)  # no int cast
    step = (np.float64(hi) - lo) / (samples - 1)
    if step.ndim or step == 0.0:  # a row per cell, or linspace's underflow rule
        return pairwise_sums(
            samples, lambda a, b: leaf(linspace_at(lo, hi, samples, base[: b - a] + a), a, b))
    buf = np.empty(base.size)

    def points(a: int, b: int) -> tuple:
        xs = np.add(base[: b - a], a, out=buf[: b - a])  # the points over their indices
        xs *= step
        xs += lo
        if b == samples:
            xs[-1] = hi
        return leaf(xs, a, b)
    return pairwise_sums(samples, points)


def walk_grid(mfs, samples: int, leaf) -> tuple:
    """``walk_linspace`` of ``leaf(xs, *mu)`` over all ``mfs``' windows, mu each one's
    ``_on_grid`` (``_membership``'s bits), in O(GRID_CHUNK) memory: a leaf finds cut
    runs in its chunk by ``_cut_chunk``, and ``_grid_runs`` joins them. ``_on_grid`` takes
    ascending points: a chunk whose last point is below the one before it (a subnormal
    step can carry ``np.linspace`` past its end before the end point) takes ``_membership``.
    A leaf may overwrite xs and each mu, which ``_on_grid`` returns fresh, but keeps none."""
    def chunk(xs, a: int, b: int) -> tuple:
        ascends = xs[-1] >= xs[-2]
        return leaf(xs, *[mf._on_grid(xs) if ascends else mf._membership(xs) for mf in mfs])
    lo, hi = min(mf.window().l for mf in mfs), max(mf.window().r for mf in mfs)
    return walk_linspace(lo, hi, samples, chunk)


def _cut_chunk(mu: np.ndarray, alphas: np.ndarray) -> list:
    """A walk chunk's cuts, for ``_grid_runs``: its size, its largest membership and the
    ``ladder_runs`` of its points, in a list, which ``pairwise_sums`` joins chunk by chunk."""
    return [(mu.size, mu.max(), *ladder_runs(mu, alphas))]


def _grid_runs(mf: MembershipFunction, samples: int, chunks: list):
    """(alpha index, left, right) of every maximal run of grid points at or above each
    alpha, by alpha, then left to right, each spanning its first to last point, from a
    walk's ``_cut_chunk`` list: the chunks' runs, offset by each chunk's start, are put
    in alpha order by a stable sort (each chunk's are in position order), and joined at
    chunk edges (``_point_runs``)."""
    sizes, _, cols, starts, stops = zip(*chunks)
    at = np.cumsum((0, *sizes[:-1]))
    col = np.concatenate(cols)
    order = np.argsort(col, kind="stable")
    start = np.concatenate([s + a for s, a in zip(starts, at)])[order]
    stop = np.concatenate([s + a for s, a in zip(stops, at)])[order]
    return _point_runs(mf, samples, col[order], start, stop)


def _point_runs(mf: MembershipFunction, samples: int, col, start, stop):
    """(alpha index, left, right) of grid point runs [start, stop), by alpha, then by
    position, each spanning its lowest to its highest point; a run that starts where the
    one before it in its cut stops is joined to it. The points ascend but for the last,
    which a subnormal step can put below the one before it: then the run that holds it
    spans it too, and each cut's spans are sorted and overlapping ones merged."""
    opens = np.ones(col.size, dtype=bool)
    opens[1:] = (col[1:] != col[:-1]) | (start[1:] != stop[:-1])
    w = mf.window()
    col, stop = col[opens], stop[np.roll(opens, -1)]
    lefts = linspace_at(w.l, w.r, samples, start[opens])
    rights = linspace_at(w.l, w.r, samples, stop - 1)
    end = np.flatnonzero(stop == samples)
    last = linspace_at(w.l, w.r, samples, np.array([samples - 2, samples - 1]))
    if end.size and last[1] < last[0]:
        lefts[end] = np.minimum(lefts[end], last[1])
        rights[end] = linspace_at(w.l, w.r, samples, np.maximum(stop[end] - 2, start[opens][end]))
        order = np.lexsort((lefts, col))
        col, lefts, rights = col[order], lefts[order], rights[order]
        cuts = np.flatnonzero(col[1:] != col[:-1]) + 1
        reach = np.concatenate([np.maximum.accumulate(r) for r in np.split(rights, cuts)])
        opens = np.ones(col.size, dtype=bool)
        opens[1:] = (col[1:] != col[:-1]) | (lefts[1:] > reach[:-1])
        col, lefts, rights = col[opens], lefts[opens], reach[np.roll(opens, -1)]
    return col, lefts, rights


def _sampled(mf: MembershipFunction, method: str) -> bool:
    """Whether `method` measures mf's cuts on a sampled grid rather than exactly."""
    if method not in ("auto", "exact", "sampled"):
        raise ValueError(f"method must be auto|exact|sampled, got {method!r}")
    if method == "exact" and not mf.closed_form:
        raise ValueError(f"{type(mf).__name__} has no closed-form alpha-cuts")
    return method == "sampled" or not mf.closed_form


def _runs(mf: MembershipFunction, alphas, samples: int, method: str):
    """(alpha index, left, right) of every maximal run of every cut, by alpha,
    then left to right: a closed form's ``_cut_runs``, or the runs of grid
    points at or above each alpha, found without a walk (``_source_runs``) or
    chunk by chunk in one walk and joined (``_grid_runs``), in O(GRID_CHUNK)
    memory plus the runs."""
    alphas = np.array(alphas, dtype=np.float64)
    if not _sampled(mf, method):
        return mf._cut_runs(alphas)
    runs = mf._source_runs(alphas, samples)
    if runs is None:
        (chunks,) = walk_grid([mf], samples, lambda xs, mu: (_cut_chunk(mu, alphas),))
        runs = _grid_runs(mf, samples, chunks)
    return runs


def _lengths(mf: MembershipFunction, alphas, samples: int, method: str) -> np.ndarray:
    """Each cut's length: its ``_runs`` added left to right (``run_sums``)."""
    col, lefts, rights = _runs(mf, alphas, samples, method)
    return run_sums(col, rights - lefts, len(alphas))


def alpha_length(
    mf: MembershipFunction,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> float:
    """Length of the alpha-cut, bit-equal to ``alpha_cut(...).total_length``.

    "auto" and "exact" measure step, piecewise-linear and Gaussian shapes in
    closed form ("exact" raises ValueError on a ``Sampled`` grid). A sampled
    grid, or any shape under "sampled", is evaluated on `samples` points over
    its window and scanned for threshold runs, which is off the true length
    by at most two grid steps per run of the cut. On a grid finer than its
    own, a ``Sampled`` grid's runs come from its own points, in time
    independent of `samples`, with the same bound and the bits of the scan.
    """
    return float(alpha_lengths(mf, [alpha], samples, method)[0])


def alpha_lengths(
    mf: MembershipFunction,
    alphas: Sequence[float],
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> np.ndarray:
    """alpha_length over a ladder of levels, in any order.

    A closed form measures the whole ladder at once; the sampled path
    samples the function once, on one grid shared by every level. A
    ``Sampled`` grid, on a grid finer than its own, cuts its own points once
    for the ladder and maps the runs onto that grid, in time independent of
    `samples`; the two-grid-step bound is unchanged. Each cut's runs are
    added left to right, as its region's ``total_length`` adds them.
    """
    alphas = tuple(alphas)  # read twice: validated, then measured
    for a in alphas:
        _check_alpha(a)
    _check_samples(samples)
    return _lengths(mf, alphas, samples, method)


def alpha_cut(
    mf: MembershipFunction,
    alpha: float,
    samples: int = DEFAULT_SAMPLES,
    method: str = "auto",
) -> AlphaCut:
    """The alpha-cut region, from the runs ``alpha_length`` measures; sampled
    runs span their first to last grid point."""
    _check_alpha(alpha)
    _check_samples(samples)
    (region,) = run_regions(*_runs(mf, [alpha], samples, method), 1)
    return AlphaCut(alpha, region)


def attributes(mf: MembershipFunction, samples: int = DEFAULT_SAMPLES) -> Attributes:
    """Height, centroid, support and core lengths.

    The centroid is the membership-weighted mean over the discretised window
    for every representation, so analytic and sampled sets are directly
    comparable; one ``walk_grid`` gives its weight and moment, bit-equal to
    ``np.sum`` over the whole grid, in O(GRID_CHUNK) memory. A moment past the
    largest float is summed again on the grid scaled by 2**-k, k the bit length
    of samples, and the quotient scaled back by 2**k: the centroid is finite,
    and scaling by a power of two is exact. Closed-form shapes
    take their exact height, support and core (the cut at 1); a ``Sampled``
    grid takes its height from the same walk, the largest chunk maximum, and
    its support and core from its cuts at 1/samples (positivity below one
    quantisation step is noise) and at 1: on its own points where
    ``alpha_lengths`` finds them there, else in the same walk, chunk by chunk
    (``_cut_chunk``). Memory stays O(GRID_CHUNK) plus the cuts' runs. Raises
    EmptySet when the function is identically zero.
    """
    _check_samples(samples)
    cuts = np.array([1.0 / samples, 1.0])  # a grid's support and core
    found = None if mf.closed_form else mf._source_runs(cuts, samples)
    if found is not None:  # added up now: the walk need not hold the runs
        found = run_sums(found[0], found[2] - found[1], 2)

    def leaf(xs, mu):
        chunk = [] if mf.closed_form else (
            _cut_chunk(mu, cuts) if found is None else [(mu.size, mu.max())])
        return mu.sum(), np.multiply(xs, mu, out=xs).sum(), chunk
    with np.errstate(over="ignore", invalid="ignore"):  # a moment past the largest float is redone
        weight, moment, chunks = walk_grid([mf], samples, leaf)
    if weight == 0.0:
        raise EmptySet(ZERO_MEMBERSHIP)
    centroid = float(moment / weight)
    if not np.isfinite(moment):  # summed on the grid scaled by 2**-k: samples points stay finite
        k = samples.bit_length()
        (moment,) = walk_grid([mf], samples, lambda xs, mu: ((xs * 2.0**-k * mu).sum(),))
        centroid = float(moment / weight) * 2.0**k
    if mf.closed_form:
        height, support = mf.height(), mf.support_length()
        (core,) = _lengths(mf, [1.0], samples, "auto")
    else:
        height = float(np.max([top for _, top, *_ in chunks]))  # NaN propagates, as in one max
        if found is None:
            col, lefts, rights = _grid_runs(mf, samples, chunks)
            found = run_sums(col, rights - lefts, 2)
        support, core = found
    return Attributes(
        height=height, centroid=centroid, support_length=float(support), core_length=float(core)
    )
