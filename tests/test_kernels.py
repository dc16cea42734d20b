"""Sampled alpha-cuts: threshold runs on a grid, against a pure-Python scan."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from intervalagreement import Sampled, alpha_cut, alpha_length
from intervalagreement.fuzzyset import alpha_lengths
from intervalagreement.intervals import runs

from helpers import run_length_scan


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
    assert run_length_scan(xs, mus, alpha) == pytest.approx(length, abs=1e-12)


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
        assert run_length_scan(xs, mus, a) == pytest.approx(length, abs=1e-12)


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
        assert alpha_cut(mf, a, samples=xs.size).total_length == pytest.approx(expected, abs=1e-12)
        assert run_length_scan(xs, mus, a) == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.booleans(), max_size=80))
def test_runs_rebuild_mask(bits):
    mask = np.array(bits, dtype=bool)
    starts, stops = runs(mask)
    rebuilt = np.zeros(mask.size, dtype=bool)
    for a, b in zip(starts, stops):
        rebuilt[a:b] = True
    assert np.array_equal(rebuilt, mask)
    # maximal runs: each non-empty, separated from the next by a False
    assert (stops > starts).all() and (starts[1:] > stops[:-1]).all()
