"""The chunked grid walk: its points are ``np.linspace``'s, its totals are
``np.sum``'s and its cut runs are the whole grid's, bit for bit, and no shape
holds a whole grid."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intervalagreement import (
    EmptySet,
    EmptySupport,
    Gaussian,
    PiecewiseConstant,
    PiecewiseLinear,
    Sampled,
    attributes,
    build_iaa,
    collection,
    gamma_alpha,
    jaccard,
    make_interval,
    trapezoidal,
    triangular,
)
from intervalagreement import agreement, fuzzyset
from intervalagreement.fuzzyset import (
    GRID_CHUNK,
    alpha_cut,
    alpha_lengths,
    linspace_at,
    pairwise_sums,
    sample_grid,
    walk_grid,
    walk_linspace,
)
from intervalagreement.intervals import ladder_runs, run_regions, run_sums

from helpers import all_vertex_membership, step_membership

CHUNK_SIZES = [
    GRID_CHUNK - 1,
    GRID_CHUNK,
    GRID_CHUNK + 1,
    2 * GRID_CHUNK + 7,
    2 * GRID_CHUNK + 8,
    3 * GRID_CHUNK - 1,
]


def bits(values) -> np.ndarray:
    """int64 view of float64 values, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).reshape(-1).view(np.int64)


ends = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0]),
)


@given(ends, ends, st.integers(2, 3 * GRID_CHUNK), st.data())
@example(0.0, 5e-324, 3, None)  # the step underflows: numpy's denormal branch
@example(1.0, 1.0, 5, None)  # a zero-width window
@example(-0.0, 1.0, 2, None)
@example(0.0, -0.0, 2, None)
@example(-0.0, -0.0, 2, None)
def test_linspace_at_matches_linspace(lo, hi, samples, data):
    want = np.linspace(lo, hi, samples)
    if data is None:
        a, b = 0, samples
    else:
        a = data.draw(st.integers(0, samples))
        b = data.draw(st.integers(a, samples))
    chunk = linspace_at(lo, hi, samples, np.arange(a, b, dtype=np.float64))
    assert np.array_equal(bits(chunk), bits(want[a:b]))
    # integer indices in any order, as run ends come
    picks = np.random.default_rng(samples).integers(0, samples, 50)
    picks[::7] = samples - 1
    assert np.array_equal(bits(linspace_at(lo, hi, samples, picks)), bits(want[picks]))


@given(st.lists(st.tuples(ends, ends), min_size=1, max_size=5), st.integers(2, 3 * GRID_CHUNK),
       st.data())
@example([(0.0, 1e-321), (2.03, 9.81)], 1001, None)  # only the first row's step underflows
@example([(2.03, 9.81), (0.0, 5e-324), (-0.0, 0.0)], 2, None)
def test_linspace_at_takes_each_rows_own_rule(pairs, samples, data):
    """Column ends give a row each, each by the rule its own ``np.linspace``
    takes; one ``np.linspace`` over the columns would switch every row's rule."""
    lo, hi = (np.array(col)[:, None] for col in zip(*pairs))
    a, b = 0, samples
    if data is not None:
        a, b = sorted(data.draw(st.integers(0, samples)) for _ in "ab")
    got = linspace_at(lo, hi, samples, np.arange(a, b, dtype=np.float64))
    assert got.shape == (len(pairs), b - a)
    for row, (l, h) in zip(got, pairs):
        assert np.array_equal(bits(row), bits(np.linspace(l, h, samples)[a:b]))


def test_walk_linspace_sums_each_row_as_np_sum():
    lo, hi = np.array([[0.0], [-3.0], [0.0]]), np.array([[1e-321], [7.25], [1.0 / 3.0]])
    for n in CHUNK_SIZES:
        rows = [np.linspace(l, h, n) for l, h in zip(lo[:, 0], hi[:, 0])]
        got = walk_linspace(lo, hi, n, lambda xs, a, b: (xs.sum(axis=1), (xs * xs).sum(axis=1)))
        want = [[np.sum(x) for x in rows], [np.sum(x * x) for x in rows]]
        assert np.array_equal(bits(got), bits(want))


WALK_CHUNK = 16


@pytest.mark.parametrize("lo, hi",
                         [(-0.0, 1.0), (1e15, 1e15 + 7.3), (0.0, 15e-324), (0.0, 25e-324)],
                         ids=["negative-zero", "1e15-origin", "step-underflows", "subnormal-step"])
@pytest.mark.parametrize("samples",
                         [2, WALK_CHUNK - 1, WALK_CHUNK, WALK_CHUNK + 1, 2 * WALK_CHUNK + 1])
def test_walk_linspace_leaf_may_overwrite_its_points(lo, hi, samples):
    """A leaf may write over the points it is handed: each chunk, copied before the leaf
    writes NaN over it, is ``np.linspace``'s stretch by bits, the chunks in order."""
    chunks = []

    def leaf(xs, a, b):
        chunks.append((a, b, xs.copy()))
        xs[:] = np.nan
        return ()
    with mock.patch.object(fuzzyset, "GRID_CHUNK", WALK_CHUNK):
        walk_linspace(lo, hi, samples, leaf)
    want = np.linspace(lo, hi, samples)
    assert [a for a, _, _ in chunks] == [0] + [b for _, b, _ in chunks[:-1]]
    assert chunks[-1][1] == samples
    for a, b, got in chunks:
        assert np.array_equal(bits(got), bits(want[a:b]))


def _arrays(mf):
    """Every array a shape holds, in its fields or in a tuple of them."""
    for value in vars(mf).values():
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                yield a


@pytest.mark.parametrize("samples", [5, GRID_CHUNK])  # _membership, then a shape's slices
def test_on_grid_returns_a_fresh_array(samples):
    """``jaccard`` writes into what ``_on_grid`` returns: it holds no memory of the
    points or of the shape."""
    for mf in [*GRID_SHAPES, Gaussian(5, 1)]:
        w = mf.window()
        x = np.linspace(w.l - 1.0, w.r + 1.0, samples)
        out = mf._on_grid(x)
        assert not np.shares_memory(out, x)
        assert not any(np.shares_memory(out, a) for a in _arrays(mf))


def _values(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        v[rng.random(n) < 0.1] = -0.0
        v[rng.random(n) < 0.1] = 0.0
        return v
    if kind == "negative_zeros":
        return np.full(n, -0.0)
    width = float(rng.uniform(0.1, 100.0))
    xs = np.linspace(-width, width, n)  # symmetric about 0: the sum cancels
    return xs * np.exp(-(xs**2)) if kind == "symmetric_moment" else xs


kinds = st.sampled_from(["mixed", "negative_zeros", "symmetric", "symmetric_moment"])


sizes = st.one_of(st.sampled_from(CHUNK_SIZES), st.integers(1, 3 * GRID_CHUNK + 3))


@given(sizes, kinds, st.integers(0, 2**32))
def test_pairwise_sums_equal_np_sum(n, kind, seed):
    v = _values(kind, n, seed)
    leaves = []

    def leaf(a, b):
        leaves.append((a, b))
        return np.sum(v[a:b]), np.sum(-v[a:b])

    total, negated = pairwise_sums(n, leaf)
    assert np.array_equal(bits([total, negated]), bits([np.sum(v), np.sum(-v)]))
    assert all(b - a <= GRID_CHUNK for a, b in leaves)
    assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]]
    assert leaves[-1][1] == n


def test_walk_grid_sums_linspace_and_finds_cut_runs():
    mf, alphas = triangular(-3, 0, 3), np.array([0.5, 0.25, 1.0])
    for n in CHUNK_SIZES:
        xs, mus = sample_grid(mf, n)
        total, moment, chunks = walk_grid(
            [mf], n, lambda x, mu: (np.sum(x), np.sum(x * mu), fuzzyset._cut_chunk(mu, alphas)))
        assert np.array_equal(bits([total, moment]), bits([np.sum(xs), np.sum(xs * mus)]))
        assert bits(max(top for _, top, *_ in chunks)) == bits(mus.max())
        _assert_runs_equal(fuzzyset._grid_runs(mf, n, chunks), _whole_grid_runs(xs, mus, alphas))


def _whole_grid_runs(xs, mus, alphas):
    """(alpha index, left, right) of ``ladder_runs`` over the whole grid, each run from
    its lowest to its highest point, each cut's spans in order with overlapping ones
    merged: the referee. On an ascending grid a run spans its first to last point."""
    col, start, stop = ladder_runs(mus, alphas)
    ends = np.column_stack([start, stop]).ravel()
    padded = np.append(xs, 0.0)  # a run may stop at the grid's end
    lows = np.minimum.reduceat(padded, ends)[::2] if ends.size else xs[:0]
    highs = np.maximum.reduceat(padded, ends)[::2] if ends.size else xs[:0]
    merged = []
    for c, lo, hi in sorted(zip(col.tolist(), lows.tolist(), highs.tolist())):
        if merged and merged[-1][0] == c and lo <= merged[-1][2]:
            merged[-1][2] = max(merged[-1][2], hi)
        else:
            merged.append([c, lo, hi])
    if not merged:
        return col, xs[:0], xs[:0]
    cols, lefts, rights = zip(*merged)
    return np.array(cols, dtype=col.dtype), np.array(lefts), np.array(rights)


def _assert_runs_equal(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(bits(got[1]), bits(want[1]))
    assert np.array_equal(bits(got[2]), bits(want[2]))


def _chunk_starts(n: int) -> list:
    """Where the walk's chunks of an n-point grid start, bar the first."""
    starts = []
    pairwise_sums(n, lambda a, b: starts.append(a) or ())
    return starts[1:]


LEVELS = [0.0, 0.25, 0.5, 0.75, 1.0]


def _edge_grid(data, chunk: int) -> np.ndarray:
    """Memberships of an n-point grid in runs of LEVELS, reworked at each chunk edge
    e into a run over e - 1 and e, a one-point run at e - 1 or at e, or left as
    drawn; then some chunks are capped below the top cuts, or zeroed."""
    n = data.draw(st.one_of(st.integers(2, 3 * chunk + 3),
                            st.sampled_from([chunk, chunk + 1, 2 * chunk + 8, 3 * chunk - 1])))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    mus = np.repeat(rng.choice(LEVELS, n), rng.integers(1, 40, n))[:n]
    starts = _chunk_starts(n)
    for e in starts:
        v = data.draw(st.sampled_from(LEVELS[1:]))
        pattern = data.draw(st.sampled_from(["across", "last", "first", "drawn"]))
        if pattern == "across":  # a run ends on a chunk's last point, resumes on the next's first
            mus[e - 1] = mus[e] = v
        elif pattern == "last":  # a one-point run left of the edge
            mus[max(e - 2, 0):e + 1] = [0.0] * (e >= 2) + [v, 0.0]
        elif pattern == "first":  # a one-point run right of the edge
            mus[e - 1:e + 2] = [0.0, v, 0.0][: n - e + 1]
    for a, b in zip([0, *starts], [*starts, n]):
        cap = data.draw(st.sampled_from([None, None, 0.5, 0.0]))  # the top cuts empty here only
        if cap is not None:
            np.minimum(mus[a:b], cap, out=mus[a:b])
    return mus


@pytest.mark.parametrize("chunk", [128, GRID_CHUNK])  # 128: np.sum's own pairwise block
@given(data=st.data())
def test_sampled_cuts_found_chunk_by_chunk_equal_the_whole_grid(chunk, data):
    """Cut lengths, cut regions and a ``Sampled`` grid's attributes, walked in chunks
    of ``chunk`` points, equal ``ladder_runs`` over ``sample_grid``'s whole grid to
    the bit: runs across chunk edges are joined, one-point runs either side of an edge
    kept, cuts empty in some chunks only are found in the rest, and ladders may be
    unsorted and repeat a level."""
    mus = _edge_grid(data, chunk)
    n = mus.size
    alphas = data.draw(st.lists(st.sampled_from([1e-3, 0.25, 0.5, 0.6, 0.75, 1.0]),
                                min_size=1, max_size=6))
    mf = Sampled(np.linspace(0.0, n - 1.0, n), mus)  # grid point i is mus[i]
    with mock.patch.object(fuzzyset, "GRID_CHUNK", chunk):
        xs, grid = sample_grid(mf, n)
        assert np.array_equal(grid, mus)
        col, lefts, rights = _whole_grid_runs(xs, grid, alphas)
        want = run_sums(col, rights - lefts, len(alphas))
        assert np.array_equal(bits(alpha_lengths(mf, alphas, n)), bits(want))
        for alpha in alphas:
            (region,) = run_regions(*_whole_grid_runs(xs, grid, [alpha]), 1)
            got = alpha_cut(mf, alpha, n).region.segments
            assert bits([[s.l, s.r] for s in got]).tolist() == bits(
                [[s.l, s.r] for s in region.segments]).tolist()
        if not grid.any():
            with pytest.raises(EmptySet):
                attributes(mf, n)
            return
        attrs = attributes(mf, n)
        col, lefts, rights = _whole_grid_runs(xs, grid, [1.0 / n, 1.0])
        support, core = run_sums(col, rights - lefts, 2)
        got = [attrs.height, attrs.centroid, attrs.support_length, attrs.core_length]
        want = [grid.max(), (xs * grid).sum() / grid.sum(), support, core]
        assert bits(got).tolist() == bits(want).tolist()


@st.composite
def sampled_source(draw):
    """A ``Sampled`` grid of 2 to 400 points from an origin of 0, -0.0, a negative value
    or 1e6, at a decimal, dyadic or subnormal spacing; memberships in plateaus of LEVELS,
    with zeros, ties and one-point runs, some points set to drawn values or to spikes."""
    n = draw(st.integers(2, 400))
    origin, spacing = draw(st.one_of(
        st.tuples(st.sampled_from([0.0, -0.0, -5.0, -37.25]),
                  st.sampled_from([0.1, 1 / 3, 0.25, 3.7, 2.0**-20])),
        st.tuples(st.just(1e6), st.sampled_from([1.0, 0.25, 2.0**-20])),
        st.tuples(st.sampled_from([0.0, -0.0]), st.sampled_from([5e-324, 15e-324, 1e-310])),
    ))
    xs = origin + np.arange(n) * spacing
    xs[0] = origin  # -0.0 + 0.0 would read 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plateau = draw(st.sampled_from([2, 6, 40]))
    mus = np.repeat(rng.choice(LEVELS, n), rng.integers(1, plateau, n))[:n]
    for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.floats(0, 1)), max_size=8)):
        mus[i] = v  # a drawn value, or past 0.9 a spike of 1 between zeros
        if v > 0.9:
            mus[max(i - 1, 0):i + 2] = [0.0] * (i > 0) + [1.0] + [0.0] * (i < n - 1)
    return Sampled(xs, mus)


def _segment_bits(region):
    return bits([[s.l, s.r] for s in region.segments]).tolist()


@pytest.mark.parametrize("checks", [fuzzyset._EDGE_CHECKS, 0], ids=["source", "walk"])
@pytest.mark.parametrize("chunk", [128, GRID_CHUNK])
@given(sampled_source(), st.data())
@example(Sampled(np.array([-0.0, 5e-324, 1e-323]), np.array([1.0, 0.0, 1.0])),
         (5, [1.0, 0.5, 0.2], 2))  # the walk's step underflows: linspace takes i / div * delta
@example(Sampled(np.array([0.0, 25e-324]), np.array([0.0, 1.0])),
         (10, [0.5], 2))  # the last point's position is below the one before it
@example(Sampled(np.arange(5) * 1e-323, np.array([0.0, 0.0, 0.0, 1.0, 0.0])),
         (7, [0.5], 2))  # no grid point reads the source run
@example(Sampled(np.arange(8) * 25e-324, np.array([0.0] * 7 + [1.0])),
         (11, [0.5], 2))  # the run holding the end point starts above it
def test_sampled_cuts_equal_the_whole_grid_either_side_of_the_source_size(
        checks, chunk, mf, data):
    """Cut lengths, cut regions, gamma_alpha and attributes of a ``Sampled`` grid, at
    `samples` below, at and above its size, equal ``ladder_runs`` over ``sample_grid``'s
    whole grid to the bit; ladders may be unsorted and repeat a level. With 0 edge checks
    every cut takes the walk, which is held to the same grid. Where a subnormal step
    carries ``np.linspace`` past its end, the grid does not ascend, and the run holding
    the end point spans it and merges with the runs it overlaps, as the referee's do."""
    n = mf.mus.size
    if isinstance(data, tuple):  # an example's own samples, ladder and cuts
        samples, alphas, cuts = data
    else:
        samples = max(2, data.draw(st.one_of(
            st.sampled_from([2, 3, n - 1, n, n + 1, 2 * n - 1, 2 * n, 10 * n]),
            st.integers(2, 20 * n))))
        level = st.one_of(st.sampled_from([1e-3, 0.25, 0.5, 0.6, 0.75, 1.0, 1.0 / samples]),
                          st.floats(1e-3, 1.0))
        alphas = data.draw(st.lists(level, min_size=1, max_size=6))
        cuts = data.draw(st.integers(2, 8))
    with mock.patch.object(fuzzyset, "_EDGE_CHECKS", checks), \
            mock.patch.object(fuzzyset, "GRID_CHUNK", chunk):
        xs, grid = sample_grid(mf, samples)
        col, lefts, rights = _whole_grid_runs(xs, grid, alphas)
        want = run_sums(col, rights - lefts, len(alphas))
        assert np.array_equal(bits(alpha_lengths(mf, alphas, samples)), bits(want))
        for alpha in alphas:
            assert _segment_bits(alpha_cut(mf, alpha, samples).region) == _segment_bits(
                run_regions(*_whole_grid_runs(xs, grid, [alpha]), 1)[0])
        col, lefts, rights = _whole_grid_runs(xs, grid, np.arange(1, cuts + 1) / cuts)
        lengths = run_sums(col, rights - lefts, cuts)
        if lengths[0] == 0.0:
            with pytest.raises(EmptySupport):
                gamma_alpha(mf, cuts, samples)
        else:
            got, ref = gamma_alpha(mf, cuts, samples), agreement._breakdown(lengths)
            assert np.array_equal(bits(got.lengths), bits(lengths))
            assert bits(got.gamma) == bits(ref.gamma)
        if not grid.any():
            with pytest.raises(EmptySet):
                attributes(mf, samples)
            return
        attrs = attributes(mf, samples)
        col, lefts, rights = _whole_grid_runs(xs, grid, [1.0 / samples, 1.0])
        support, core = run_sums(col, rights - lefts, 2)
        got = [attrs.height, attrs.centroid, attrs.support_length, attrs.core_length]
        want = [grid.max(), (xs * grid).sum() / grid.sum(), support, core]
        assert bits(got).tolist() == bits(want).tolist()


@given(st.integers(2, 12), st.sampled_from([0.0, -0.0]),
       st.sampled_from([5e-324, 15e-324, 25e-324, 1e-322]), st.data())
@example(2, 0.0, 25e-324, (10, [0.5], [0.0, 1.0]))  # the end point falls inside the run before it
def test_sampled_cuts_on_subnormal_grids_are_regions(n, origin, spacing, data):
    """On a subnormal window a ``np.linspace`` grid may end below the point before its end:
    every cut is a region whose length ``alpha_lengths`` gives, no width is negative, and
    on a grid that ascends each run still spans its first to last point."""
    xs = origin + np.arange(n) * spacing
    xs[0] = origin  # -0.0 + 0.0 would read 0.0
    if isinstance(data, tuple):
        samples, alphas, mus = data
    else:
        samples = data.draw(st.integers(2, 40))
        alphas = data.draw(st.lists(st.sampled_from(LEVELS[1:]), min_size=1, max_size=4))
        mus = data.draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
    mf = Sampled(xs, np.array(mus))
    lengths = alpha_lengths(mf, alphas, samples)
    assert (lengths >= 0.0).all()
    for alpha, length in zip(alphas, lengths.tolist()):
        assert bits(alpha_cut(mf, alpha, samples).total_length) == bits(length)
    grid, grid_mus = sample_grid(mf, samples)
    if (np.diff(grid) >= 0.0).all():
        col, start, stop = ladder_runs(grid_mus, alphas)
        want = run_sums(col, grid[stop - 1] - grid[start], len(alphas))
        assert np.array_equal(bits(lengths), bits(want))


@pytest.mark.parametrize("samples", [2, 1000, 1001, 1002, 2001, 3 * GRID_CHUNK + 5])
def test_sampled_cuts_walk_only_a_grid_no_finer_than_the_source(samples):
    """On a grid finer than its own 1,001 points, a ``Sampled`` grid's ``alpha_lengths``,
    ``gamma_alpha`` and ``alpha_cut`` call no ``_on_grid``; on one no finer, each walks
    it once. ``attributes`` walks it once either way. At 2,001 samples every other grid
    point sits half way between two source points, so run edges are stepped from their
    guess."""
    mf, chunks = GRID_SHAPES[4], len(_chunk_starts(samples)) + 1

    def grid_calls(run) -> int:
        with mock.patch.object(Sampled, "_on_grid", autospec=True,
                               side_effect=Sampled._on_grid) as on_grid:
            try:
                run()
            except EmptySupport:  # at 2 samples the lowest cut is one point
                pass
        return on_grid.call_count

    cuts = [grid_calls(lambda: alpha_lengths(mf, np.arange(1, 21) / 20, samples)),
            grid_calls(lambda: gamma_alpha(mf, 20, samples)),
            grid_calls(lambda: alpha_cut(mf, 0.5, samples))]
    assert cuts == [0 if samples > mf.mus.size else chunks] * 3
    assert grid_calls(lambda: attributes(mf, samples)) == chunks


GRID_SHAPES = [
    Gaussian(5, 1, domain=make_interval(2, 9)),
    triangular(-3, 0, 3),
    trapezoidal(0, 2, 6, 9),
    build_iaa(collection([(2, 5), (3, 5), (6, 8), (3, 7)])),
    Sampled(np.linspace(0, 20, 1001), np.abs(np.sin(np.linspace(0, 9, 1001)))),
]


def _run_lengths(xs, mus, alphas):
    """Each cut's runs of points at or above alpha, from first to last point,
    added left to right: the whole-grid reference."""
    out = []
    for alpha in alphas:
        edges = np.diff(np.concatenate([[0], (mus >= alpha).astype(np.int8), [0]]))
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        total = 0.0
        for width in xs[stops - 1] - xs[starts]:
            total += width
        out.append(total)
    return out


@pytest.mark.parametrize("mf", GRID_SHAPES, ids=lambda mf: type(mf).__name__)
@pytest.mark.parametrize("samples", [17, CHUNK_SIZES[2], CHUNK_SIZES[3]])
def test_grid_results_equal_whole_grid_sums(mf, samples):
    xs, mus = sample_grid(mf, samples)
    attrs = attributes(mf, samples)
    assert bits(attrs.centroid) == bits((xs * mus).sum() / mus.sum())
    if isinstance(mf, Sampled):
        assert attrs.height == mus.max()
        assert [attrs.support_length, attrs.core_length] == _run_lengths(
            xs, mus, [1.0 / samples, 1.0]
        )
    alphas = np.arange(1, 21) / 20
    lengths = alpha_lengths(mf, alphas, samples, method="sampled")
    assert np.array_equal(bits(lengths), bits(_run_lengths(xs, mus, alphas)))
    other = GRID_SHAPES[2]
    lo, hi = min(mf.window().l, other.window().l), max(mf.window().r, other.window().r)
    gx = np.linspace(lo, hi, samples)
    ma, mb = mf.membership(gx), other.membership(gx)
    want = np.minimum(ma, mb).sum() / np.maximum(ma, mb).sum()
    assert bits(jaccard(mf, other, samples)) == bits(want)


@pytest.mark.parametrize("mf", GRID_SHAPES[:4], ids=lambda mf: type(mf).__name__)
def test_closed_form_grid_memory_is_one_chunk(mf):
    samples = 4_000_001  # a whole grid would be 32 MB per array
    tracemalloc.start()
    try:
        attributes(mf, samples)
        jaccard(mf, GRID_SHAPES[1], samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sampled_grid_cut_memory_is_one_chunk():
    mf = GRID_SHAPES[4]
    samples = 4_000_001  # a whole membership array would be 32 MB
    tracemalloc.start()
    try:
        alpha_lengths(mf, np.arange(1, 21) / 20, samples)
        attributes(mf, samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


vertex_xs = st.integers(-8, 8).map(lambda k: k / 4)
vertex_mus = st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0, 1))


@st.composite
def linear_and_probes(draw):
    """A piecewise-linear shape with lattice vertices (so ties are common) and
    ascending probes: on vertices, inside and outside the shape, signed zeros."""
    vertices = draw(st.lists(st.tuples(vertex_xs, vertex_mus), min_size=2, max_size=8))
    xs, mus = zip(*sorted(vertices, key=lambda v: v[0]))  # ties keep their drawn order
    probes = draw(
        st.lists(
            st.one_of(st.floats(-3, 3), st.sampled_from([*xs, 0.0, -0.0])), max_size=60
        )
    )
    return PiecewiseLinear(np.array(xs), np.array(mus)), np.sort(np.array(probes, dtype=float))


@given(linear_and_probes())
@example((PiecewiseLinear(np.array([0, 5e-324, 1]), np.array([0.0, 1, 0])),
          np.array([-1, -0.0, 0, 0, 5e-324, 0.5, 1, 1, 2])))  # the first slope overflows
@example((PiecewiseLinear(np.array([0, 1e-310, 1]), np.array([0.0, 1, 0.5])),
          np.array([0, 5e-311, 1e-310, 0.25])))  # inf strictly inside, as np.interp gives
@example((PiecewiseLinear(np.array([0, 1, 1, 1, 2]), np.array([0.0, 0.2, 0.9, 0.5, 0])),
          np.array([0.5, 1, 1, 1.5])))  # the max of three ties, the largest in the middle
@example((PiecewiseLinear(np.array([0, 0, 0, 1, 2, 2, 2.0]),
                          np.array([0.25, 1, 0.5, 0.75, 0, 0.5, 0.25])),
          np.array([-1, 0, 0, 0.5, 1, 2, 2, 3.0])))  # the first and the last vertex tied
@example((PiecewiseLinear(np.array([-0.0, 0, -0.0, 5e-324, 5e-324, 1]),
                          np.array([0.25, 0.75, 0.5, 1, 0, 0.5])),
          np.array([-1, -0.0, 0, 5e-324, 5e-324, 0.5, 1, 2])))  # ties at +/-0.0 and a subnormal
def test_linear_on_grid_matches_interp_with_max_of_ties(shape_and_probes):
    mf, probes = shape_and_probes
    # a chunk's worth of points left of the shape: long enough for the slice path
    x = np.concatenate([np.linspace(-12.0, -4.0, GRID_CHUNK), probes])
    want = bits(all_vertex_membership(mf.xs, mf.mus, x))
    assert np.array_equal(bits(mf._on_grid(x)), want)
    assert np.array_equal(bits(mf._membership(x)), want)
    # a chunk that also ends past the last vertex
    past = np.concatenate([x, np.linspace(4.0, 12.0, 64)])
    assert np.array_equal(bits(mf._on_grid(past)), bits(all_vertex_membership(mf.xs, mf.mus, past)))
    # the probes alone are too few for slices: _on_grid takes _membership
    assert np.array_equal(bits(mf._on_grid(probes)), want[GRID_CHUNK:])


@pytest.mark.parametrize("vertices", [3, 16, 17, 4000])
def test_linear_on_grid_either_side_of_the_slice_path(vertices):
    # up to one distinct vertex per 2048 points evaluates by slices, past it by np.interp;
    # the points hit every distinct vertex, untied and then tied three times
    ux = np.linspace(0.0, 9.0, vertices)
    x = np.sort(np.concatenate([np.linspace(-0.5, 9.5, GRID_CHUNK), ux]))
    for ties in (1, 3):
        xs = np.repeat(ux, ties)
        mf = PiecewiseLinear(xs, (1.0 + np.sin(7.0 * xs + np.arange(xs.size) % ties)) / 2.0)
        want = bits(all_vertex_membership(mf.xs, mf.mus, x))
        assert np.array_equal(bits(mf._on_grid(x)), want)
        assert np.array_equal(bits(mf._membership(x)), want)
        gx, mus = sample_grid(mf, 3 * GRID_CHUNK + 5)
        assert bits(attributes(mf, gx.size).centroid) == bits((gx * mus).sum() / mus.sum())


@st.composite
def step_and_probes(draw):
    """A step function on lattice breakpoints (levels may be -0.0, and there
    may be none) with probes in any order: on breakpoints, some more than once,
    between them and off either end, at -0.0, NaN and +/-inf, spanning all the
    breakpoints or some."""
    bp = sorted(draw(st.sets(vertex_xs, min_size=1, max_size=9)))
    level = st.one_of(vertex_mus, st.just(-0.0))
    levels = draw(st.lists(level, min_size=len(bp) - 1, max_size=len(bp) - 1))
    odd = st.sampled_from([-0.0, np.nan, np.inf, -np.inf])
    probes = draw(st.lists(st.one_of(st.floats(-3, 3), st.sampled_from(bp), odd),
                           min_size=1, max_size=60))
    return PiecewiseConstant(np.array(bp), np.array(levels, dtype=float)), np.array(probes)


@given(step_and_probes())
@example((PiecewiseConstant(np.array([1.0]), np.array([])), np.array([0, 1, 1, 2.0])))
@example((PiecewiseConstant(np.array([0, 1, 2.0]), np.array([-0.0, 0.0])),
          np.array([-1, -0.0, 0, 0.5, 1, 1, 1.5, 2, 3.0])))  # np.maximum(0.0, -0.0) is 0.0 at 1
@example((PiecewiseConstant(np.array([-1, 0, 2.0]), np.array([0.5, 0.25])),
          np.array([3, -0.0, np.nan, 0, -np.inf, 0.5, np.inf, -1, 2])))  # unsorted; -0.0 on 0.0
@example((PiecewiseConstant(np.array([0, 1, 2.0]), np.array([0.5, 0.25])),
          np.array([1.5, 1.75])))  # no breakpoint within the probes: the one cell's level
@example((PiecewiseConstant(np.array([0, 1, 2.0]), np.array([0.5, 0.25])),
          np.array([0.5, 1, 1.5])))  # one breakpoint within
@example((PiecewiseConstant(np.array([0, 1, 2.0]), np.array([0.5, 0.25])),
          np.array([2.5, 3.0])))  # past the last
def test_step_on_grid_equals_membership(shape_and_probes):
    """``_membership`` on the probes in any order, and both of ``_on_grid``'s paths on
    them ascending, slices (forced at any density) and, past its density bound,
    ``_membership`` itself: each bit-equal to the clipped-index referee."""
    mf, x = shape_and_probes
    want = bits(step_membership(mf.breakpoints, mf.levels, x))
    assert np.array_equal(bits(mf._membership(x)), want)
    x = np.sort(x)
    want = bits(step_membership(mf.breakpoints, mf.levels, x))
    with mock.patch.object(fuzzyset, "STEP_POINTS_PER_BREAKPOINT", 0):
        assert np.array_equal(bits(mf._on_grid(x)), want)
    assert np.array_equal(bits(mf._on_grid(x)), want)


sampled_ends = st.floats(-60, 80)


@given(sampled_ends, sampled_ends, st.integers(2, 3000))
@example(-5.0, 25.0, GRID_CHUNK + 1)  # jaccard's union window around [0, 20]
@example(-1e306, 1e306, 101)
@example(30.0, 40.0, 11)  # wholly off the grid
@example(-0.01, 20.01, 2001)  # ends half a step off the grid
def test_sampled_on_grid_equals_membership(lo, hi, samples):
    mf = GRID_SHAPES[4]
    xs = np.linspace(*sorted((lo, hi)), samples)
    assert np.array_equal(bits(mf._on_grid(xs)), bits(mf._membership(xs)))
