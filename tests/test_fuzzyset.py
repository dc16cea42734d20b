import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import intervalagreement.fuzzyset as fuzzyset_mod
from intervalagreement import (
    EmptySet,
    Gaussian,
    InvalidAlpha,
    InvalidDomain,
    PiecewiseConstant,
    PiecewiseLinear,
    Sampled,
    alpha_cut,
    alpha_length,
    attributes,
    build_iaa,
    collection,
    make_interval,
    mu,
    trapezoidal,
    triangular,
)

from helpers import all_vertex_membership

FIG_OVERLAP = [(2, 4), (2.5, 3.5)]
FIG_NONCONVEX = [(2, 5), (3, 5), (6, 8), (3, 7)]


# ------------------------------------------------------------------ membership

def test_gaussian_peak_membership():
    assert mu(Gaussian(5, 1), 5.0) == 1.0


def test_gaussian_outside_domain_is_zero():
    g = Gaussian(5, 1, domain=make_interval(4, 6))
    assert mu(g, 3.9) == 0.0
    assert mu(g, 5.5) == pytest.approx(math.exp(-0.125))


def test_step_membership_from_two_intervals():
    fs = build_iaa(collection(FIG_OVERLAP))
    assert mu(fs, 3.0) == 1.0
    assert mu(fs, 2.2) == 0.5
    assert mu(fs, 1.99) == 0.0
    # closed endpoints keep membership at the domain edges
    assert mu(fs, 2.0) == 0.5
    assert mu(fs, 4.0) == 0.5
    # shared breakpoints take the larger adjacent level
    assert mu(fs, 2.5) == 1.0
    assert mu(fs, 3.5) == 1.0


def test_triangular_membership():
    tri = triangular(0, 1, 2)
    assert mu(tri, 0.5) == 0.5
    assert mu(tri, 1.0) == 1.0
    assert mu(tri, 2.5) == 0.0


def test_piecewise_linear_vertical_jump_takes_max():
    mf = PiecewiseLinear(np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    assert mu(mf, 0.0) == 1.0
    assert mu(mf, 0.5) == 0.5
    assert mu(mf, -0.1) == 0.0


@given(
    st.lists(
        st.tuples(st.integers(-8, 8).map(lambda k: k / 4), st.integers(0, 4).map(lambda k: k / 4)),
        min_size=2,
        max_size=12,
    ),
    st.lists(st.integers(-40, 40).map(lambda k: k / 16), max_size=30),
)
def test_piecewise_linear_membership_matches_all_vertex_loop(vertices, probes):
    # coarse lattices: vertices tie and probes land exactly on vertices
    vertices.sort(key=lambda v: v[0])
    xs, mus = (np.array(c) for c in zip(*vertices))
    x = np.array(probes + xs.tolist() + [np.inf, -np.inf, np.nan])
    got = PiecewiseLinear(xs, mus).membership(x)
    assert got.tobytes() == all_vertex_membership(xs, mus, x).tobytes()


@pytest.mark.filterwarnings("error")
def test_gaussian_membership_far_in_the_tails_is_zero():
    g = Gaussian(5, 1)
    x = np.array([1e300, -1e300, np.inf, -np.inf, 5.0])
    assert g.membership(x).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert [g.membership(v) for v in x] == [0.0, 0.0, 0.0, 0.0, 1.0]
    assert Gaussian(0, 1e-150).membership(1e5) == 0.0  # the division overflows


def test_sampled_nearest_point():
    mf = Sampled(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
    assert mu(mf, 0.5) == 0.5
    assert mu(mf, 0.52) == 0.5
    assert mu(mf, 2.0) == 0.0


def test_vectorised_membership_matches_scalar():
    fs = build_iaa(collection(FIG_NONCONVEX))
    xs = np.linspace(0, 10, 101)
    vec = fs.membership(xs)
    assert vec.tolist() == [mu(fs, float(x)) for x in xs]


# ------------------------------------------------------------------ validation

def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant(np.array([0.0, 1.0]), np.array([1.5]))
    with pytest.raises(ValueError):
        PiecewiseConstant(np.array([1.0, 0.0]), np.array([0.5]))


def test_gaussian_validation():
    with pytest.raises(ValueError):
        Gaussian(0, 0)
    with pytest.raises(InvalidDomain):
        Gaussian(0, 1, domain=make_interval(2, 2))
    with pytest.raises(InvalidDomain):
        Gaussian(5, 1, domain=make_interval(100, 200)).window()


@pytest.mark.filterwarnings("error")
def test_gaussian_extreme_stddev():
    # 2 * stddev**2 underflows to 0: membership would be NaN at the mean
    with pytest.raises(ValueError, match="underflows"):
        Gaussian(0, 1e-300)
    assert Gaussian(0, 1e-150).membership(np.array([0.0, 1e-140])).tolist() == [1.0, 0.0]
    # 2 * stddev**2 overflows: membership would raise OverflowError or read NaN,
    # with or without a domain
    for stddev in (1e308, 3e307, 1.4e154, 9.5e153):
        with pytest.raises(ValueError, match="overflows"):
            Gaussian(0, stddev)
        with pytest.raises(ValueError, match="overflows"):
            Gaussian(0, stddev, domain=make_interval(0, 10))
    widest = Gaussian(0, 9e153)
    assert widest.membership(0.0) == 1.0
    assert widest.window() == make_interval(-4.5e154, 4.5e154)
    assert Gaussian(0, 9e153, domain=make_interval(0, 10)).window() == make_interval(0, 10)


@pytest.mark.filterwarnings("error")
def test_gaussian_stddev_below_the_means_resolution_is_rejected():
    # mean +/- 5 stddev rounds back to the mean: the window would be empty
    for mean, stddev in ((1.7e308, 1.0), (1.0, 1e-17), (-1e20, 100.0)):
        with pytest.raises(ValueError, match="float resolution"):
            Gaussian(mean, stddev)
        with pytest.raises(ValueError, match="float resolution"):
            Gaussian(mean, stddev, domain=make_interval(min(mean, 0.0), max(mean, 0.0) + 1.0))
    assert Gaussian(1.0, 1e-15).window().length > 0


@pytest.mark.filterwarnings("error")
def test_span_too_wide_for_a_float_is_rejected():
    # last - first overflows: cut lengths would read inf and gamma NaN
    for make in (
        lambda: PiecewiseConstant(np.array([-1e308, 0, 1e308]), np.array([1.0, 0.5])),
        lambda: PiecewiseConstant(np.array([-1e308, 1e308]), np.array([1.0])),
        lambda: PiecewiseLinear(np.array([-1e308, 1e308]), np.array([1.0, 1.0])),
        lambda: Sampled(np.array([-1e308, 1e308]), np.array([1.0, 1.0])),
    ):
        with pytest.raises(ValueError, match="wider than a float can measure"):
            make()
    # a finite span with overflowing steps is unsorted, and says so without a warning
    xs = np.array([0.0, 1.7e308, -1.7e308, 0.0])
    for cls in (PiecewiseLinear, Sampled):
        with pytest.raises(ValueError, match="sorted|increasing"):
            cls(xs, np.zeros(4))
    with pytest.raises(ValueError, match="increasing"):
        PiecewiseConstant(xs, np.zeros(3))
    wide = PiecewiseConstant(np.array([-8e307, 0, 8e307]), np.array([1.0, 0.5]))
    assert alpha_length(wide, 1.0) == 8e307


@pytest.mark.filterwarnings("error")
def test_sampled_membership_off_grid_is_zero():
    mf = Sampled(np.linspace(0, 1, 11), np.ones(11))
    assert mf.membership(1e300) == 0.0
    x = np.array([-1e300, -np.inf, np.inf, np.nan, -0.06, 0.0, 1.04, 1.06, 1e300])
    assert mf.membership(x).tolist() == [0, 0, 0, 0, 0, 1, 1, 0, 0]


def test_sampled_validation():
    with pytest.raises(ValueError):
        Sampled(np.array([0.0, 1.0, 3.0]), np.array([0.0, 0.5, 0.0]))


def test_constructor_shape_guards():
    with pytest.raises(ValueError):
        triangular(2, 1, 0)
    with pytest.raises(ValueError):
        trapezoidal(0, 2, 1, 3)


# ----------------------------------------------------------------- alpha-cuts

def test_alpha_length_gaussian_analytic():
    g = Gaussian(5, 2, domain=make_interval(0, 10))
    expected = 2 * 2 * math.sqrt(2 * math.log(2))
    assert alpha_length(g, 0.5, samples=10001) == pytest.approx(expected, abs=0.01)


def test_alpha_length_step_exact():
    fs = build_iaa(collection(FIG_NONCONVEX))
    assert alpha_length(fs, 0.75) == 2.0
    assert alpha_length(fs, 0.5) == 3.0
    assert alpha_length(fs, 0.25) == 6.0


def test_alpha_above_height_is_empty():
    fs = build_iaa(collection([(1, 3), (3.5, 5)]))
    assert alpha_length(fs, 0.75) == 0.0
    assert alpha_cut(fs, 0.75).region.is_empty


def test_alpha_cut_identical_pair():
    fs = build_iaa(collection([(2, 4), (2, 4)]))
    cut = alpha_cut(fs, 1.0)
    assert [(s.l, s.r) for s in cut.region] == [(2.0, 4.0)]


def test_alpha_cut_triangular_sampled():
    cut = alpha_cut(triangular(0, 1, 2), 0.5, samples=1001)
    (seg,) = cut.region.segments
    assert seg.l == pytest.approx(0.5, abs=2e-3)
    assert seg.r == pytest.approx(1.5, abs=2e-3)


def test_alpha_validation():
    fs = build_iaa(collection(FIG_OVERLAP))
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(InvalidAlpha):
            alpha_length(fs, bad)
    with pytest.raises(ValueError):
        alpha_length(fs, 0.5, samples=1)
    with pytest.raises(ValueError):
        alpha_length(triangular(0, 1, 2), 0.5, method="exact")


def test_step_exact_matches_forced_sampling():
    fs = build_iaa(collection(FIG_NONCONVEX))
    exact = alpha_length(fs, 0.5)
    sampled = alpha_length(fs, 0.5, samples=20001, method="sampled")
    assert sampled == pytest.approx(exact, abs=2e-3)


@given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_alpha_cut_monotone(a1, a2):
    lo, hi = sorted((a1, a2))
    fs = build_iaa(collection(FIG_NONCONVEX))
    assert alpha_length(fs, hi) <= alpha_length(fs, lo) + 1e-12
    tri = triangular(0, 1, 2)
    assert alpha_length(tri, hi, 501) <= alpha_length(tri, lo, 501) + 1e-12


@pytest.mark.parametrize(
    "mf,width",
    [
        (triangular(0, 1, 2), 2.0),
        (trapezoidal(0, 1, 3, 6), 6.0),
        (Gaussian(5, 1, domain=make_interval(0, 10)), 10.0),
    ],
)
@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
def test_estimator_converges_with_resolution(mf, width, alpha):
    for samples in (101, 501, 1001):
        coarse = alpha_length(mf, alpha, samples)
        fine = alpha_length(mf, alpha, 2 * samples)
        assert abs(coarse - fine) <= 2 * width / samples


def test_iaa_levels_equal_exact_cut_lengths():
    from intervalagreement import level_lengths

    coll = collection([(0, 4), (1, 3), (2, 6), (2.5, 3.0)])
    fs = build_iaa(coll)
    lengths = level_lengths(coll)
    for k in range(1, coll.n + 1):
        assert alpha_length(fs, k / coll.n) == pytest.approx(lengths[k - 1], abs=1e-9)


# ------------------------------------------------------------------ attributes

def test_attributes_triangular():
    attrs = attributes(triangular(0, 1, 2))
    assert attrs.height == 1.0
    assert attrs.centroid == pytest.approx(1.0, abs=1e-9)
    assert attrs.support_length == 2.0
    assert attrs.core_length == 0.0


def test_attributes_step_overlap():
    attrs = attributes(build_iaa(collection(FIG_OVERLAP)))
    assert attrs.height == 1.0
    assert attrs.centroid == pytest.approx(3.0, abs=1e-9)
    assert attrs.support_length == 2.0
    assert attrs.core_length == 1.0


ATTRIBUTE_SHAPES = [
    Sampled(np.linspace(0, 4, 9), np.array([0, 0.2, 1, 1, 0.5, 1, 0.001, 0, 0.3])),
    trapezoidal(0, 0, 2.5, 4),  # the vertical jump at 0 keeps 2 samples non-empty
    Gaussian(5, 1, domain=make_interval(2, 9)),
    build_iaa(collection(FIG_NONCONVEX)),
]


@pytest.mark.parametrize("mf", ATTRIBUTE_SHAPES, ids=lambda mf: type(mf).__name__)
@pytest.mark.parametrize("samples", [2, 17, 1001])
def test_attributes_samples_once_and_matches_alpha_length(monkeypatch, mf, samples):
    calls = []
    sample = fuzzyset_mod.sample_grid

    def counted(f, n):
        calls.append(n)
        return sample(f, n)

    monkeypatch.setattr(fuzzyset_mod, "sample_grid", counted)
    attrs = attributes(mf, samples)
    assert calls == [samples]
    assert attrs.core_length == alpha_length(mf, 1.0, samples)
    if isinstance(mf, Sampled):
        assert attrs.support_length == alpha_length(mf, 1.0 / samples, samples)


def test_attributes_empty_set():
    flat = Sampled(np.linspace(0, 1, 11), np.zeros(11))
    with pytest.raises(EmptySet):
        attributes(flat)


def test_centroid_of_symmetric_shapes():
    assert attributes(Gaussian(5, 1, domain=make_interval(0, 10)), 2001).centroid == (
        pytest.approx(5.0, abs=1e-6)
    )
    assert attributes(trapezoidal(1, 2, 4, 5), 2001).centroid == pytest.approx(3.0, abs=1e-6)


def test_gaussian_support_spans_declared_domain():
    attrs = attributes(Gaussian(5, 0.1, domain=make_interval(0, 10)))
    assert attrs.support_length == 10.0
    assert attrs.height == 1.0


def test_core_positive_implies_full_height():
    for pairs in ([(1, 2), (1, 2)], [(0, 5), (1, 3)], [(0, 1), (2, 3)]):
        fs = build_iaa(collection(pairs))
        attrs = attributes(fs)
        if attrs.core_length > 0:
            assert attrs.height == 1.0


def test_degenerate_point_collection_is_empty_set():
    fs = build_iaa(collection([(3, 3)]))
    assert mu(fs, 3.0) == 0.0
    with pytest.raises(EmptySet):
        attributes(fs)
