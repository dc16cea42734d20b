import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from intervalagreement import (
    EmptySet,
    EmptySupport,
    GammaTerm,
    Gaussian,
    InvalidCuts,
    TooFewSources,
    build_iaa,
    collection,
    gamma_alpha,
    gamma_exact,
    jaccard,
    level_lengths,
    make_interval,
    triangular,
)
from intervalagreement.agreement import _breakdown, gamma_sums
from intervalagreement.intervals import tuple_length_oracle

from helpers import FIG_FULLCORE, FIG_NONCONVEX, FIG_OVERLAP, finite_intervals, lattice_intervals

# weighted mean of alpha-cut width ratios for any Gaussian, 10 cuts:
# widths scale with sqrt(-ln alpha), so sigma cancels out
GAUSSIAN_GAMMA_10 = sum(
    (i / 10) * math.sqrt(math.log(i / 10) / math.log((i - 1) / 10)) for i in range(2, 11)
) / 5.4

# same construction for triangles: cut width shrinks linearly in alpha
TRIANGULAR_GAMMA_10 = sum((i / 10) * (10 - i) / (11 - i) for i in range(2, 11)) / 5.4


# ------------------------------------------------------------------ exact path

@pytest.mark.parametrize(
    "pairs,expected",
    [
        (FIG_OVERLAP, 0.5),
        (FIG_NONCONVEX, 1 / 3),
        (FIG_FULLCORE, 1.3 / 2.25),
        ([(2, 4), (2, 4)], 1.0),
        ([(1, 3), (3.5, 5)], 0.0),
    ],
)
def test_gamma_exact_worked_examples(pairs, expected):
    assert gamma_exact(collection(pairs)).gamma == pytest.approx(expected, abs=1e-12)


def test_gamma_breakdown_terms():
    b = gamma_exact(collection(FIG_NONCONVEX))
    assert b.weight_sum == pytest.approx(2.25)
    assert [t.weight for t in b.terms] == [0.5, 0.75, 1.0]
    assert [t.length for t in b.terms] == [3.0, 2.0, 0.0]
    assert [t.prev_length for t in b.terms] == [6.0, 3.0, 2.0]
    assert [t.ratio for t in b.terms] == [0.5, 2 / 3, 0.0]
    reassembled = sum(t.weight * t.ratio for t in b.terms) / b.weight_sum
    assert b.gamma == pytest.approx(reassembled, abs=1e-15)


def _termwise_breakdown(lengths, weights):
    """Reference assembly: one Python-float term per level, summed in order."""
    terms = []
    for i in range(1, len(lengths)):
        ratio = lengths[i] / lengths[i - 1] if lengths[i - 1] > 0.0 else 0.0
        terms.append(
            GammaTerm(float(weights[i]), float(lengths[i]), float(lengths[i - 1]), float(ratio))
        )
    weight_sum = float(weights[1:].sum())
    gamma = 0.0
    for t in terms:  # in order: builtin sum compensates from Python 3.12 on
        gamma += t.weight * t.ratio
    return gamma / weight_sum, tuple(terms), weight_sum


@given(st.one_of(finite_intervals(2, 12), lattice_intervals(2, 12)))
def test_breakdown_bit_equal_to_termwise_assembly(pairs):
    coll = collection(pairs)
    lengths = level_lengths(coll)
    assume(lengths[0] > 0.0)
    b = gamma_exact(coll)
    gamma, terms, weight_sum = _termwise_breakdown(lengths, np.arange(1, coll.n + 1) / coll.n)
    assert (b.gamma, b.terms, b.weight_sum) == (gamma, terms, weight_sum)
    assert all(type(v) is float for t in b.terms for v in vars(t).values())


def test_zero_over_zero_term_contributes_nothing():
    # levels 3 and 4 are both empty: their ratios must be 0, not 0/0
    b = gamma_exact(collection([(1, 2), (1, 2), (5, 6), (5, 6)]))
    assert [t.ratio for t in b.terms] == [1.0, 0.0, 0.0]
    assert b.gamma == pytest.approx(0.5 / 2.25)


def test_gamma_needs_two_sources():
    with pytest.raises(TooFewSources):
        gamma_exact(collection([(2, 4)]))


def test_gamma_rejects_pure_point_collections():
    with pytest.raises(EmptySupport):
        gamma_exact(collection([(3, 3), (3, 3)]))


# ------------------------------------------------------------- alpha-cut path

def test_gamma_alpha_matches_exact_on_step_set():
    fs = build_iaa(collection(FIG_OVERLAP))
    assert gamma_alpha(fs, cuts=2).gamma == pytest.approx(0.5, abs=1e-12)


@given(st.one_of(finite_intervals(2, 12), lattice_intervals(2, 12)))
def test_gamma_alpha_on_aggregate_equals_gamma_exact(pairs):
    # with one cut per participant the step set's cuts are the agreement
    # levels, measured from the same runs and summed in the same order
    coll = collection(pairs)
    assume(level_lengths(coll)[0] > 0.0)
    alpha = gamma_alpha(build_iaa(coll), cuts=coll.n)
    exact = gamma_exact(coll)
    assert alpha.gamma == exact.gamma
    assert np.array_equal(alpha.lengths, exact.lengths)


def test_gamma_alpha_gaussian_reference_value():
    # sampled estimate sits on the analytic ratio value; 0.6518 is the
    # published reference figure for this configuration
    g = Gaussian(5, 1, domain=make_interval(0, 10))
    got = gamma_alpha(g, cuts=10, samples=10001, method="sampled").gamma
    assert got == pytest.approx(GAUSSIAN_GAMMA_10, abs=5e-4)
    assert abs(got - 0.6518) <= 0.02


def test_gamma_alpha_triangular_shape_scale_free():
    gammas = [
        gamma_alpha(triangular(*abc), cuts=10, samples=10001, method="sampled").gamma
        for abc in [(0, 1, 2), (5, 6, 7), (0, 10, 20)]
    ]
    for g in gammas:
        assert g == pytest.approx(TRIANGULAR_GAMMA_10, abs=5e-4)
    assert max(gammas) - min(gammas) <= 1e-3


def test_gamma_alpha_exact_on_closed_forms():
    for sigma, domain in ((1, (0, 10)), (0.1, (0, 10)), (2, (-5, 15)), (7.5, None)):
        g = Gaussian(5, sigma, domain=make_interval(*domain) if domain else None)
        assert gamma_alpha(g, cuts=10).gamma == pytest.approx(GAUSSIAN_GAMMA_10, abs=1e-12)
    for abc in [(0, 1, 2), (5, 6, 7), (0, 10, 20)]:
        got = gamma_alpha(triangular(*abc), cuts=10, method="exact").gamma
        assert got == pytest.approx(TRIANGULAR_GAMMA_10, abs=1e-12)


def test_gamma_alpha_validation():
    fs = build_iaa(collection(FIG_OVERLAP))
    with pytest.raises(InvalidCuts):
        gamma_alpha(fs, cuts=1)
    flat = build_iaa(collection([(3, 3), (4, 4)]))
    with pytest.raises(EmptySupport):
        gamma_alpha(flat, cuts=2)


EMPTY_ALPHA_2 = "the lowest alpha-cut (alpha = 1/2) has zero length; no lengths to compare"


def test_gamma_alpha_names_the_empty_lowest_cut():
    """[3, 7] has width 4, but no point reaches the lowest cut, alpha = 1/2;
    the exact mode compares level lengths and reads 0."""
    fs = build_iaa(collection([(2, 2), (5, 5), (3, 7)]))
    with pytest.raises(EmptySupport) as exc:
        gamma_alpha(fs, cuts=2)
    assert str(exc.value) == EMPTY_ALPHA_2
    assert gamma_exact(collection([(2, 2), (5, 5), (3, 7)])).gamma == 0.0
    with pytest.raises(EmptySupport, match="^every source has zero width; no lengths to compare$"):
        gamma_exact(collection([(3, 3), (4, 4)]))


@given(st.lists(st.integers(2, 60), min_size=1, max_size=8), st.integers(0, 2**32))
@example([13, 2, 13], 0)  # at 13 levels the pairwise weight sum is not the exactly rounded one
def test_gamma_sums_of_cells_equal_each_cells_breakdown(size, seed):
    """Cells of mixed sizes, zero lengths included: each cell's γ, ratios,
    weights and weight sum are its own breakdown's, to the bit; a cell's
    weights are ``np.arange(1, c + 1) / c``, and its weight sum their pairwise
    ``np.sum`` from level 2 on."""
    rng = np.random.default_rng(seed)
    cells = [np.sort(rng.uniform(0, 5, c) * (rng.random(c) < 0.8))[::-1] for c in size]
    for lengths in cells:
        lengths[0] = max(lengths[0], 0.5)
    gamma, ratios, weights, weight_sum = gamma_sums(np.concatenate(cells), np.array(size))
    starts = np.cumsum(size) - size
    for c, lengths in enumerate(cells):
        b = _breakdown(lengths)
        at = slice(starts[c], starts[c] + size[c])
        assert gamma[c] == b.gamma and weight_sum[c] == b.weight_sum
        assert np.array_equal(weights[at], np.arange(1, size[c] + 1) / size[c])
        assert weight_sum[c] == (np.arange(1, size[c] + 1) / size[c])[1:].sum()
        assert np.array_equal(ratios[starts[c]:starts[c] + size[c] - 1], b.ratios)


def test_gamma_alpha_sampled_path_close_to_exact():
    coll = collection(FIG_FULLCORE)
    fs = build_iaa(coll)
    exact = gamma_exact(coll).gamma
    sampled = gamma_alpha(fs, cuts=4, samples=10001, method="sampled").gamma
    assert sampled == pytest.approx(exact, abs=5e-3)


# ------------------------------------------------------------------ invariance

@given(lattice_intervals(min_size=2), st.floats(-20, 20, allow_nan=False))
def test_gamma_translation_invariant(pairs, c):
    try:
        base = gamma_exact(collection(pairs)).gamma
    except EmptySupport:
        return
    moved = gamma_exact(collection([(l + c, r + c) for l, r in pairs])).gamma
    assert moved == pytest.approx(base, abs=1e-9)


@given(lattice_intervals(min_size=2), st.floats(0.05, 20, allow_nan=False))
def test_gamma_scale_invariant(pairs, s):
    try:
        base = gamma_exact(collection(pairs)).gamma
    except EmptySupport:
        return
    scaled = gamma_exact(collection([(l * s, r * s) for l, r in pairs])).gamma
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


@given(finite_intervals(min_size=2))
def test_gamma_bounded_and_matches_oracle(pairs):
    coll = collection(pairs)
    try:
        b = gamma_exact(coll)
    except EmptySupport:
        return
    assert 0.0 <= b.gamma <= 1.0
    assert all(0.0 <= t.ratio <= 1.0 + 1e-12 for t in b.terms)
    oracle_lengths = np.array(
        [tuple_length_oracle(coll, k) for k in range(1, coll.n + 1)]
    )
    via_oracle = _breakdown(oracle_lengths)
    assert b.gamma == pytest.approx(via_oracle.gamma, abs=1e-9)


def test_gamma_one_iff_identical():
    assert gamma_exact(collection([(1.5, 4), (1.5, 4), (1.5, 4)])).gamma == 1.0
    # a strict subset response breaks total agreement
    assert gamma_exact(collection([(1.5, 4), (1.5, 4), (2, 4)])).gamma < 1.0
    # a point response caps every deeper level at zero length
    assert gamma_exact(collection([(1.5, 4), (1.5, 4), (2, 2)])).gamma < 1.0


def test_gamma_zero_iff_no_positive_overlap():
    assert gamma_exact(collection([(0, 1), (2, 3), (4, 5)])).gamma == 0.0
    assert gamma_exact(collection([(0, 1), (1, 2)])).gamma == 0.0  # point touch
    assert gamma_exact(collection([(0, 1), (0.9, 2)])).gamma > 0.0


# --------------------------------------------------------------------- jaccard

def test_jaccard_self_similarity():
    fs = build_iaa(collection(FIG_NONCONVEX))
    assert jaccard(fs, fs) == 1.0
    tri = triangular(0, 1, 2)
    assert jaccard(tri, tri) == 1.0


def test_jaccard_disjoint_supports():
    assert jaccard(triangular(0, 1, 2), triangular(5, 6, 7)) == 0.0


def test_jaccard_adjacent_triangles():
    # overlapping unit triangles share 1/4 area against 7/4 combined
    a, b = triangular(0, 1, 2), triangular(1, 2, 3)
    val = jaccard(a, b, samples=2001)
    assert val == pytest.approx(1 / 7, abs=2e-3)
    assert jaccard(b, a, samples=2001) == val


def test_jaccard_symmetry_on_mixed_shapes():
    fs = build_iaa(collection(FIG_OVERLAP))
    g = Gaussian(3, 1, domain=make_interval(0, 6))
    assert jaccard(fs, g) == jaccard(g, fs)
    assert 0.0 < jaccard(fs, g) < 1.0


def test_jaccard_empty_pair_rejected():
    flat = build_iaa(collection([(3, 3), (3, 3)]))
    with pytest.raises(EmptySet):
        jaccard(flat, flat)
