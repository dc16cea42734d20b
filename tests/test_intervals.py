import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intervalagreement import intervals as intervals_mod
from intervalagreement import (
    AgreementError,
    CombinatorialLimit,
    gamma_exact,
    DisjointRegion,
    EmptyCollection,
    Interval,
    IntervalCollection,
    InvalidInterval,
    collection,
    level_lengths,
    level_sets,
    make_interval,
    tuple_length_oracle,
    union_region,
)

from helpers import (
    FIG_FULLCORE,
    FIG_NONCONVEX,
    FIG_OVERLAP,
    finite_intervals,
    lattice_intervals,
    oracle_level_sets,
    oracle_run_sums,
    two_search_counts,
)


def seg_tuples(region):
    return [(s.l, s.r) for s in region]


# ---------------------------------------------------------------- construction

def test_make_interval_basic():
    iv = make_interval(2, 4)
    assert (iv.l, iv.r) == (2.0, 4.0)
    assert iv.length == 2.0


def test_make_interval_zero_width():
    assert make_interval(3, 3).length == 0.0


@pytest.mark.parametrize("l,r", [(5, 1), (math.inf, 1), (0, math.nan), (math.nan, math.nan)])
def test_make_interval_rejects(l, r):
    with pytest.raises(InvalidInterval):
        make_interval(l, r)


def test_make_interval_rejects_overflowing_width():
    with pytest.raises(InvalidInterval, match="width of .* is not finite"):
        make_interval(-1e308, 1e308)
    # the endpoint messages keep precedence over the width check
    with pytest.raises(InvalidInterval, match="endpoints must be finite"):
        make_interval(-math.inf, 1e308)
    with pytest.raises(InvalidInterval, match="left endpoint exceeds right"):
        make_interval(1e308, -1e308)
    assert make_interval(-8e307, 8e307).length == 1.6e308


def test_collection_span_beyond_float_range_rejected():
    # each width is finite, but the levels together would measure inf
    coll = collection([(-1e308, 1), (0, 1e308)])
    with pytest.raises(InvalidInterval, match="wider than a float can measure"):
        level_lengths(coll)
    with pytest.raises(InvalidInterval):
        level_sets(coll)


def test_empty_collection_rejected():
    with pytest.raises(EmptyCollection):
        IntervalCollection([])


def test_collection_preserves_order():
    coll = collection([(3, 5), (1, 2)])
    assert [(iv.l, iv.r) for iv in coll] == [(3.0, 5.0), (1.0, 2.0)]
    assert coll.n == 2


@given(st.one_of(finite_intervals(), lattice_intervals()))
def test_collection_from_arrays_matches_intervals(pairs):
    ls, rs = (np.array([p[i] for p in pairs], dtype=np.float64) for i in (0, 1))
    built = collection(pairs)
    stored = IntervalCollection._from_arrays(ls, rs)
    assert stored == built and stored.intervals == built.intervals
    assert stored.n == built.n == len(pairs)
    for a, b in zip(stored.endpoints(), built.endpoints()):
        assert np.array_equal(a, b)
    if built.n >= 2 and level_lengths(built)[0] > 0:
        assert gamma_exact(stored).gamma == gamma_exact(built).gamma


PAIR_VALUES = [0, 1, 2.5, -0.0, 1e308, -1e308, math.inf, math.nan, "3", "a", None, True, 10**400]


@given(st.lists(st.tuples(*[st.sampled_from(PAIR_VALUES)] * 2), max_size=6))
def test_collection_raises_the_first_bad_pairs_error(pairs):
    def outcome(build):
        try:
            return build().intervals
        except (AgreementError, TypeError, ValueError, OverflowError) as exc:
            return type(exc), str(exc)

    # the referee validates one pair at a time, in order
    want = outcome(lambda: IntervalCollection(make_interval(l, r) for l, r in pairs))
    assert outcome(lambda: collection(pairs)) == want


@given(st.lists(st.tuples(*[st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0])] * 2).map(sorted),
                min_size=1, max_size=40))
def test_coverage_coordinates_are_np_unique_to_the_bit(pairs):
    coll = collection(pairs)
    coords, _ = intervals_mod.coverage_cells(coll)
    want = np.unique(np.concatenate(coll.endpoints()))
    assert coords.tolist() == want.tolist()
    assert np.signbit(coords).tolist() == np.signbit(want).tolist()


# ties, ±0.0 and subnormals; free floats between them add distinct coordinates
COVER_ENDPOINTS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1050, 1.0, -1.0, 2.5, 3.0]


@given(st.lists(
    st.tuples(*[st.sampled_from(COVER_ENDPOINTS) | st.floats(-4, 4)] * 2).map(sorted),
    min_size=1, max_size=60))
@example([(0.0, 0.0)])
@example([(-0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.5), (-5e-324, 5e-324)])
@example([(1.0, 2.0)] * 60)
def test_coverage_counts_match_two_searches(pairs):
    coll = collection(pairs)
    coords, counts = intervals_mod.coverage_cells(coll)
    want = two_search_counts(coll, coords)
    assert counts.dtype == want.dtype
    assert counts.tolist() == want.tolist()


def test_collection_endpoints_are_read_only():
    for coll in (collection([(1, 2), (0, 3)]), IntervalCollection._from_arrays(
        np.array([1.0, 0.0]), np.array([2.0, 3.0]))):
        ls, rs = coll.endpoints()
        with pytest.raises(ValueError):
            ls[0] = 5.0
        with pytest.raises(ValueError):
            rs[0] = 5.0
        assert coll.intervals == (Interval(1.0, 2.0), Interval(0.0, 3.0))


def test_disjoint_region_rejects_touching_segments():
    with pytest.raises(InvalidInterval):
        DisjointRegion((Interval(0, 1), Interval(1, 2)))


# ---------------------------------------------------------------------- unions

def test_union_nonconvex_set():
    region = union_region(collection(FIG_NONCONVEX))
    assert seg_tuples(region) == [(2.0, 8.0)]
    assert region.total_length == 6.0


def test_union_disjoint_pair():
    region = union_region(collection([(1, 3), (3.5, 5)]))
    assert seg_tuples(region) == [(1.0, 3.0), (3.5, 5.0)]
    assert region.total_length == 3.5


def test_union_single_interval():
    assert seg_tuples(union_region(collection([(2, 4)]))) == [(2.0, 4.0)]


def test_union_merges_touching():
    region = union_region(collection([(1, 2), (2, 3)]))
    assert seg_tuples(region) == [(1.0, 3.0)]


def test_union_keeps_isolated_points():
    region = union_region(collection([(3, 3), (5, 6)]))
    assert seg_tuples(region) == [(3.0, 3.0), (5.0, 6.0)]
    assert region.total_length == 1.0


# ------------------------------------------------------------------ level sets

def test_level_lengths_nonconvex():
    assert level_lengths(collection(FIG_NONCONVEX)).tolist() == [6.0, 3.0, 2.0, 0.0]


def test_level_lengths_full_core():
    coll = collection(FIG_FULLCORE)
    assert level_lengths(coll).tolist() == [5.0, 3.0, 2.0, 1.0]
    assert seg_tuples(level_sets(coll)[3]) == [(4.0, 5.0)]


def test_level_lengths_identical_pair():
    assert level_lengths(collection([(2, 4), (2, 4)])).tolist() == [2.0, 2.0]


def test_point_overlap_has_zero_measure():
    # touching closed intervals share one point, which carries no length
    coll = collection([(1, 2), (2, 3)])
    assert level_lengths(coll).tolist() == [2.0, 0.0]
    assert level_sets(coll)[1].is_empty


def test_zero_width_counts_toward_n_but_not_length():
    coll = collection([(3, 3), (2, 5)])
    assert coll.n == 2
    assert level_lengths(coll).tolist() == [3.0, 0.0]


def _region_lengths(coll):
    return np.array([region.total_length for region in oracle_level_sets(coll)])


@pytest.mark.parametrize(
    "pairs",
    [
        [(2, 4)],
        [(2, 4), (2, 4), (2, 4)],
        [(3, 3), (3, 3)],
        [(1, 1), (2, 5), (5, 5)],
        [(1, 2), (2, 3), (3, 4)],
        [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)],
        [(0.1, 0.7), (0.2, 0.3), (0.3, 0.9), (0.7, 1.3)],
        # runs of widths 1, 2**-53, 2**-53: only the left-to-right sum gives exactly 1.0
        [(-3, -2), (0.1, 0.1 + 2**-53), (0.2, 0.2 + 2**-53)],
    ],
    ids=["single", "duplicates", "all-equal", "zero-width", "touching", "touching-stacks",
         "fractional", "summation-order"],
)
def test_level_lengths_bit_equal_to_level_sets_cases(pairs):
    coll = collection(pairs)
    assert np.array_equal(level_lengths(coll), _region_lengths(coll))
    assert level_sets(coll) == oracle_level_sets(coll)


@given(st.one_of(finite_intervals(max_size=12), lattice_intervals(max_size=12)))
def test_level_lengths_bit_equal_to_level_sets(pairs):
    coll = collection(pairs)
    lengths = level_lengths(coll)
    assert lengths.dtype == np.float64 and lengths.shape == (coll.n,)
    assert np.array_equal(lengths, _region_lengths(coll))


@given(st.one_of(finite_intervals(max_size=12), lattice_intervals(max_size=12)))
def test_level_sets_match_per_level_oracle(pairs):
    # the per-level builder is independent of level_runs, which serves both
    # level_sets and level_lengths
    coll = collection(pairs)
    regions = level_sets(coll)
    assert len(regions) == coll.n
    assert regions == oracle_level_sets(coll)


# widths of mixed magnitude, so a reordered addition changes the bits
run_width = st.one_of(
    st.floats(0, 1e17, allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, 2**-53, 0.1, 1e16, 3.0]),
)


@given(st.lists(st.lists(run_width, max_size=40), max_size=8), st.integers(0, 4))
def test_run_sums_bit_equal_to_per_key_sum(per_key, extra):
    # entry k holds key k's run widths in position order: empty entries are
    # keys with no runs, and `extra` asks for sizes past the last key
    keys = np.arange(len(per_key)).repeat([len(ws) for ws in per_key])
    widths = np.array([w for ws in per_key for w in ws], dtype=np.float64)
    size = len(per_key) + extra
    got = intervals_mod.run_sums(keys, widths, size)
    assert got.dtype == np.float64 and got.shape == (size,)
    assert np.array_equal(got, oracle_run_sums(keys, widths, size))


def test_total_length_adds_left_to_right():
    # 1e16 + 1 rounds back to 1e16 at every step; a compensated sum (builtin
    # sum from Python 3.12 on) would read 1e16 + 4
    segments = (Interval(-1e16 - 10, -10), *(Interval(2 * i, 2 * i + 1) for i in range(4)))
    assert DisjointRegion(segments).total_length == 1e16


# ---------------------------------------------------------------------- oracle

def test_oracle_nonconvex_level3():
    assert tuple_length_oracle(collection(FIG_NONCONVEX), 3) == 2.0


def test_oracle_pair_overlap():
    assert tuple_length_oracle(collection(FIG_OVERLAP), 2) == 1.0


def test_oracle_disjoint_pair():
    assert tuple_length_oracle(collection([(1, 3), (3.5, 5)]), 2) == 0.0


def test_oracle_combinatorial_limit():
    coll = collection([(i, i + 2) for i in range(30)])
    with pytest.raises(CombinatorialLimit):
        tuple_length_oracle(coll, 15)
    assert tuple_length_oracle(coll, 29, limit=100) >= 0.0


def test_oracle_k_out_of_range():
    with pytest.raises(ValueError):
        tuple_length_oracle(collection([(0, 1)]), 2)


# ------------------------------------------------------------------ properties

@given(finite_intervals())
def test_levels_nested_and_match_oracle(pairs):
    coll = collection(pairs)
    lengths = level_lengths(coll)
    regions = level_sets(coll)
    assert all(lengths[k] <= lengths[k - 1] + 1e-12 for k in range(1, coll.n))
    for k in range(1, coll.n + 1):
        assert lengths[k - 1] == pytest.approx(tuple_length_oracle(coll, k), abs=1e-9)
    # nesting as point sets: every deeper segment sits inside some shallower one
    for deep, shallow in zip(regions[1:], regions):
        for seg in deep:
            assert any(s.l <= seg.l and seg.r <= s.r for s in shallow)
    assert lengths[0] == pytest.approx(union_region(coll).total_length, abs=1e-12)


@given(finite_intervals(), st.floats(-30, 30, allow_nan=False))
def test_translation_invariance(pairs, c):
    base = level_lengths(collection(pairs))
    moved = level_lengths(collection([(l + c, r + c) for l, r in pairs]))
    assert np.allclose(base, moved, atol=1e-9)


@given(finite_intervals(), st.floats(0.01, 20, allow_nan=False))
def test_scale_covariance(pairs, s):
    base = level_lengths(collection(pairs))
    scaled = level_lengths(collection([(l * s, r * s) for l, r in pairs]))
    assert np.allclose(scaled, base * s, rtol=1e-9, atol=1e-12)
