"""Threshold runs: sampled alpha-cuts against a pure-Python scan, and the
run enumerators (``runs``, ``ladder_runs``, ``level_runs``) against masks."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from intervalagreement import Sampled, alpha_cut, alpha_length, intervals
from intervalagreement.fuzzyset import alpha_lengths
from intervalagreement.intervals import _level_marks, ladder_runs, level_runs, runs

from helpers import lexsort_level_marks, run_length_scan


def grid_cut(xs, mus, alpha):
    """(length, segments) of the sampled cut on the grid the set was given on."""
    mf = Sampled(xs, mus)
    cut = alpha_cut(mf, alpha, samples=xs.size)
    return alpha_length(mf, alpha, samples=xs.size), [(s.l, s.r) for s in cut.region]


def test_run_closes_at_previous_point():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    mus = np.array([0.9, 0.9, 0.1, 0.9, 0.1])
    # runs at indices [0,1] and [3,3]; the second is a single point
    assert grid_cut(xs, mus, 0.5) == (1.0, [(0.0, 1.0), (3.0, 3.0)])
    assert run_length_scan(xs, mus, 0.5) == 1.0


def test_open_run_closes_at_final_point():
    xs = np.linspace(0, 4, 5)
    mus = np.array([0.0, 0.0, 0.8, 0.8, 0.8])
    assert grid_cut(xs, mus, 0.5) == (2.0, [(2.0, 4.0)])
    assert run_length_scan(xs, mus, 0.5) == 2.0


def test_all_below_threshold():
    xs = np.linspace(0, 1, 11)
    assert grid_cut(xs, np.zeros(11), 0.5) == (0.0, [])
    assert run_length_scan(xs, np.zeros(11), 0.5) == 0.0


def test_all_at_or_above_threshold():
    xs = np.linspace(2, 7, 101)
    assert grid_cut(xs, np.full(101, 0.5), 0.5) == (5.0, [(2.0, 7.0)])
    assert run_length_scan(xs, np.full(101, 0.5), 0.5) == 5.0


def test_alternating_single_points_sum_to_zero():
    xs = np.linspace(0, 1, 9)
    mus = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
    length, segments = grid_cut(xs, mus, 0.5)
    assert length == 0.0 and segments == [(x, x) for x in xs[::2].tolist()]
    assert run_length_scan(xs, mus, 0.5) == 0.0


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=60),
    st.floats(0.01, 1.0, allow_nan=False),
)
def test_python_and_numpy_paths_agree(mus, alpha):
    mus = np.asarray(mus)
    xs = np.linspace(0, 10, mus.size)
    (length,) = alpha_lengths(Sampled(xs, mus), [alpha], samples=mus.size)
    assert run_length_scan(xs, mus, alpha) == length


@given(
    st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=60),
    st.lists(st.sampled_from([0.05, 0.2, 0.5, 0.75, 0.999, 1.0]), max_size=12),
    st.lists(st.floats(0.01, 1.0, allow_nan=False), max_size=4),
)
def test_unsorted_ladder_with_duplicates_matches_each_alpha(mus, repeated, free):
    mus = np.asarray(mus)
    xs = np.linspace(0, 10, mus.size)
    mf = Sampled(xs, mus)
    alphas = repeated + free + repeated[:3]
    ladder = alpha_lengths(mf, alphas, samples=mus.size)
    assert ladder.shape == (len(alphas),)
    for a, length in zip(alphas, ladder):
        assert length == alpha_length(mf, a, samples=mus.size)
        assert run_length_scan(xs, mus, a) == length


def test_dispatch_and_multi_alpha_agree():
    rng = np.random.default_rng(7)
    xs = np.linspace(0, 20, 5001)
    mus = np.clip(np.sin(xs) * 0.5 + 0.5 + rng.normal(0, 0.05, xs.size), 0, 1)
    mf = Sampled(xs, mus)
    alphas = np.linspace(0.1, 1.0, 10)
    ladder = alpha_lengths(mf, alphas, samples=xs.size)
    assert np.array_equal(alpha_lengths(mf, iter(alphas), samples=xs.size), ladder)
    for a, expected in zip(alphas, ladder):
        assert alpha_length(mf, a, samples=xs.size) == expected
        assert alpha_cut(mf, a, samples=xs.size).total_length == expected
        assert run_length_scan(xs, mus, a) == expected


@given(st.lists(st.booleans(), max_size=80))
@example([])
@example([True])
@example([False])
def test_runs_rebuild_mask(bits):
    mask = np.array(bits, dtype=bool)
    starts, stops = runs(mask)
    # intp even with no interior edge: ladder_runs slices with them
    assert starts.dtype == stops.dtype == np.intp
    rebuilt = np.zeros(mask.size, dtype=bool)
    for a, b in zip(starts, stops):
        rebuilt[a:b] = True
    assert np.array_equal(rebuilt, mask)
    # maximal runs: each non-empty, separated from the next by a False
    assert (stops > starts).all() and (starts[1:] > stops[:-1]).all()


def _rebuilt_masks(keys, starts, stops, size, length):
    """One boolean mask per key from (key, start, stop) runs, after checking
    the runs are ordered by key, then by position, non-empty and maximal."""
    order = np.lexsort((starts, keys))
    assert np.array_equal(order, np.arange(keys.size))
    masks = np.zeros((size, length), dtype=bool)
    for k in range(size):
        a, b = starts[keys == k], stops[keys == k]
        assert (b > a).all() and (a[1:] > b[:-1]).all()
        for lo, hi in zip(a, b):
            masks[k, lo:hi] = True
    return masks


@given(
    st.lists(st.floats(0, 1, allow_nan=False), max_size=60),
    st.lists(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.75, 1.0]), max_size=8),
    st.lists(st.floats(0, 1, allow_nan=False), max_size=4),
)
def test_ladder_runs_rebuild_each_threshold(values, repeated, free):
    values = np.asarray(values, dtype=np.float64)
    thresholds = repeated + free + repeated[:3]  # unsorted, with duplicates
    keys, starts, stops = ladder_runs(values, thresholds)
    masks = _rebuilt_masks(keys, starts, stops, len(thresholds), values.size)
    for t, mask in zip(thresholds, masks):
        assert np.array_equal(mask, values >= t)


@given(st.lists(st.integers(0, 6), max_size=60))
def test_level_runs_rebuild_each_level(counts):
    counts = np.asarray(counts, dtype=np.int64)
    keys, starts, stops = level_runs(counts)
    top = int(counts.max(initial=0))
    assert keys.size == 0 or int(keys[-1]) == top - 1
    masks = _rebuilt_masks(keys, starts, stops, top, counts.size)
    for k, mask in enumerate(masks, start=1):
        assert np.array_equal(mask, counts >= k)


def assert_runs_match_lexsort(counts):
    """``level_runs`` of ``counts`` equals its runs with the marks ordered by ``np.lexsort``."""
    got = level_runs(counts)
    with patch.object(intervals, "_level_marks", lexsort_level_marks):
        want = level_runs(counts)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@given(st.lists(st.integers(0, 9), max_size=80))
@example([])
@example([0])
@example([0] * 7)
@example([0, 70_000, 70_000, 0, 3, 70_001, 2])  # levels past 2**16
def test_level_runs_match_lexsort_marks(counts):
    assert_runs_match_lexsort(np.asarray(counts, dtype=np.int64))


@pytest.mark.parametrize("bits", range(1, 21))
def test_level_runs_match_lexsort_marks_at_each_index_width(bits):
    counts = np.zeros(1 << (bits - 1), dtype=np.int64)  # its last fall is at index 2**(bits-1)
    counts[0] = 2
    counts[-5:] = [3, 1, 4, 1, 5][-counts.size:]
    assert int(np.flatnonzero(np.diff(counts, prepend=0, append=0))[-1]).bit_length() == bits
    assert_runs_match_lexsort(counts)


@given(st.sets(st.integers(0, 1 << 20), max_size=20),
       st.lists(st.integers(0, 40), min_size=20, max_size=20),
       st.lists(st.integers(0, 6), min_size=20, max_size=20))
def test_level_marks_match_lexsort(at, lo, rise):
    at = np.array(sorted(at), dtype=np.int64)
    lo = np.array(lo[:at.size], dtype=np.int64)
    hi = lo + np.array(rise[:at.size], dtype=np.int64)
    for g, w in zip(_level_marks(at, lo, hi), lexsort_level_marks(at, lo, hi)):
        assert np.array_equal(g, w)


def test_level_marks_key_bound_is_63_bits():
    # one mark each (hi = lo + 1), so nothing large is allocated at any level or index
    def marks(index, level):
        return _level_marks(np.array([index]), np.array([level - 1]), np.array([level]))

    for index, level in ((2**40 - 1, 2**23 - 1), (2**62 - 1, 1), (0, 2**62)):
        got = marks(index, level)
        assert [a.tolist() for a in got] == [[level - 1], [index]]
    for index, level in ((2**40 - 1, 2**23), (2**40, 2**23 - 1), (2**62, 1), (1, 2**62)):
        with pytest.raises(OverflowError):
            marks(index, level)
