import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import intervalagreement.fuzzyset as fuzzyset_mod
from intervalagreement.fuzzyset import alpha_lengths
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
    gamma_alpha,
    make_interval,
    mu,
    trapezoidal,
    triangular,
)

from helpers import all_vertex_membership, gaussian_membership

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


ODD_XS = [-0.0, 5e-324]  # equal to 0.0, and next to it: the first slope overflows


@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.sampled_from(ODD_XS)),
            st.integers(0, 4).map(lambda k: k / 4),
        ),
        min_size=2,
        max_size=12,
    ),
    st.lists(
        st.one_of(
            st.integers(-40, 40).map(lambda k: k / 16),
            st.sampled_from([*ODD_XS, -5e-324, np.nan, np.inf, -np.inf]),
        ),
        max_size=30,
    ),
)
@example(  # the first and the last vertex tied three times each, the max in the middle
    [(0.0, 0.25), (0.0, 1.0), (0.0, 0.5), (1.0, 0.75), (2.0, 0.0), (2.0, 0.5), (2.0, 0.25)],
    [2.0, 0.0, 1.0, 0.5, -0.0, 2.5, -1.0],
)
@example(  # ties at -0.0 and 0.0 (one x) and at a subnormal, probes unsorted
    [(-0.0, 0.25), (0.0, 0.75), (-0.0, 0.5), (5e-324, 1.0), (5e-324, 0.0), (0.5, 0.5)],
    [np.nan, 5e-324, np.inf, -0.0, -np.inf, 0.0, -5e-324, 1e-323, 0.25],
)
def test_piecewise_linear_membership_matches_all_vertex_loop(vertices, probes):
    # coarse lattices: vertices tie and probes land exactly on vertices, in any order
    vertices.sort(key=lambda v: v[0])  # -0.0 and 0.0 keep their drawn order
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


ODD_X = [0.0, -0.0, np.inf, -np.inf, np.nan]


@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3),
       st.none() | st.tuples(st.floats(-60, 60), st.floats(0.1, 60)),
       st.lists(st.one_of(st.floats(-60, 60), st.floats(40, 1e200), st.floats(-1e200, -40)),
                max_size=30),
       st.lists(st.sampled_from(ODD_X), max_size=8))
@example(0.0, 1.0, None, [-40.0, 40.0, 1e200], ODD_X)
@example(5.0, 1.0, (-3.0, 4.0), [0.0, -4.0, -3.0, 1.0, 45.0], ODD_X)
def test_gaussian_membership_equals_the_five_step_formula(mean, stddev, domain, zs, odd):
    """``_membership`` is the formula that negated before it divided, by bits, at z
    stddevs from the mean (past 40, exp underflows; past 1e154 the square overflows) and
    at +/-0.0, +/-inf and NaN, with a domain (its ends z stddevs from the mean) or without;
    only a NaN's sign may differ, as dividing by -(2 stddev^2) does not flip it."""
    if domain is not None:
        domain = make_interval(mean + domain[0] * stddev, mean + (domain[0] + domain[1]) * stddev)
    g = Gaussian(mean, stddev, domain)
    x = np.array([mean + z * stddev for z in zs] + odd, dtype=np.float64)
    got, want = g.membership(x), gaussian_membership(mean, stddev, domain, x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    assert got[keep].tobytes() == want[keep].tobytes()


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
    cut = alpha_cut(triangular(0, 1, 2), 0.5, samples=1001, method="sampled")
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
    # every shape but a sampled grid has a closed-form cut
    assert alpha_length(triangular(0, 1, 2), 0.5, method="exact") == 1.0
    with pytest.raises(ValueError, match="no closed-form"):
        alpha_length(Sampled(np.linspace(0, 1, 11), np.ones(11)), 0.5, method="exact")
    with pytest.raises(ValueError, match="method"):
        alpha_length(fs, 0.5, method="fast")


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
        coarse = alpha_length(mf, alpha, samples, method="sampled")
        fine = alpha_length(mf, alpha, 2 * samples, method="sampled")
        assert abs(coarse - fine) <= 2 * width / samples


def test_iaa_levels_equal_exact_cut_lengths():
    from intervalagreement import level_lengths

    coll = collection([(0, 4), (1, 3), (2, 6), (2.5, 3.0)])
    fs = build_iaa(coll)
    lengths = level_lengths(coll)
    for k in range(1, coll.n + 1):
        assert alpha_length(fs, k / coll.n) == lengths[k - 1]


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
    walk = fuzzyset_mod.walk_grid

    def counted(mfs, n, leaf):
        calls.append(n)
        return walk(mfs, n, leaf)

    monkeypatch.setattr(fuzzyset_mod, "walk_grid", counted)
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
    # a domain beside the mean: the height is at the window end nearest to it
    assert attributes(Gaussian(5, 1, domain=make_interval(6, 12))).height == math.exp(-0.5)


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


# ------------------------------------------------------------ closed-form cuts

LADDER = np.array([1e-9, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])


@pytest.mark.parametrize(
    "abcd", [(0, 1, 1, 2), (1, 4, 4, 9), (-3, -3, -3, 5), (0, 2, 6, 9), (0, 0, 2.5, 4), (-1, 0.5, 0.75, 8)]
)
def test_triangle_and_trapezoid_cuts_match_closed_form(abcd):
    a, b, c, d = abcd
    mf = triangular(a, b, d) if b == c else trapezoidal(a, b, c, d)
    expected = (d - a) - LADDER * ((b - a) + (d - c))
    assert np.abs(alpha_lengths(mf, LADDER) - expected).max() <= 1e-12
    for alpha in LADDER:
        (seg,) = alpha_cut(mf, alpha).region
        assert seg.l == pytest.approx(a + alpha * (b - a), abs=1e-12)
        assert seg.r == pytest.approx(d - alpha * (d - c), abs=1e-12)


@pytest.mark.parametrize(
    "mf,lo,hi",
    [
        (Gaussian(5, 1), 0, 10),  # no domain: clipped to the window
        (Gaussian(-2.5, 0.3, domain=make_interval(-10, 10)), -10, 10),
        (Gaussian(5, 1, domain=make_interval(4, 10)), 4, 10),  # clipped on the left
        (Gaussian(5, 1, domain=make_interval(6, 12)), 6, 12),  # mean outside the domain
    ],
)
def test_gaussian_cuts_match_closed_form(mf, lo, hi):
    half = mf.stddev * np.sqrt(-2 * np.log(LADDER))
    expected = np.maximum(np.minimum(mf.mean + half, hi) - np.maximum(mf.mean - half, lo), 0)
    assert np.abs(alpha_lengths(mf, LADDER) - expected).max() <= 1e-12
    if mf.domain is None:  # unclipped above alpha = exp(-12.5): the textbook width
        assert np.abs(alpha_lengths(mf, LADDER[1:]) - 2 * half[1:]).max() <= 1e-12


def test_gaussian_cut_with_domain_is_clipped_to_the_domain_alone():
    g = Gaussian(5, 0.1, domain=make_interval(0, 10))
    # below alpha = exp(-12.5) the cut is wider than mean +/- 5 stddev
    true = 2 * 0.1 * math.sqrt(-2 * math.log(1e-9))
    assert alpha_length(g, 1e-9) == pytest.approx(true, abs=1e-12)
    assert alpha_length(g, 1e-9) == pytest.approx(1.2876, abs=1e-4)
    assert alpha_length(g, 1e-9) < attributes(g).support_length == 10.0
    assert alpha_length(Gaussian(5, 1, domain=make_interval(4, 7)), 1e-9) == 3.0
    # the sampled path keeps the window
    assert alpha_length(g, 1e-9, method="sampled") <= g.window().length == pytest.approx(1.0)


def test_gaussian_cut_with_domain_off_the_window():
    # the domain misses mean +/- 5 stddev, yet mu(4) = 1.5e-8 reaches 1e-9
    g = Gaussian(10, 1, domain=make_interval(0, 4))
    (seg,) = alpha_cut(g, 1e-9).region
    assert (seg.l, seg.r) == (pytest.approx(10 - math.sqrt(-2 * math.log(1e-9))), 4.0)
    assert alpha_length(g, 1e-9) == seg.r - seg.l
    assert alpha_length(g, 1e-3) == 0.0 and not alpha_cut(g, 1e-3).region.segments
    with pytest.raises(InvalidDomain):  # the sampled path has no window to walk
        alpha_length(g, 1e-9, method="sampled")


# Lattice vertices tie, run flat at a lattice alpha and jump. The sampled scan
# thresholds rounded memberships, so a slope within an ulp of flat (or a
# domain so narrow that exp() reads 1 across it) could make it read a long
# run the exact cut rightly calls a point; the lattices keep those out.
vertex_xs = st.integers(-8, 8).map(lambda k: k / 4)
vertex_mus = st.integers(0, 8).map(lambda k: k / 8)
cut_alphas = st.one_of(st.integers(1, 8).map(lambda k: k / 8), st.floats(1e-6, 1))


def _gaussian(mean, stddev, lo, hi):
    """Gaussian whose domain, if any, ends at lattice multiples of stddev."""
    if lo != hi:
        try:
            lo, hi = sorted((mean + lo / 4 * stddev, mean + hi / 4 * stddev))
            g = Gaussian(mean, stddev, domain=make_interval(lo, hi))
            g.window()
            return g
        except InvalidDomain:  # the domain misses mean +/- 5 stddev
            pass
    return Gaussian(mean, stddev)


closed_form_shapes = st.one_of(
    st.lists(st.tuples(vertex_xs, vertex_mus), min_size=2, max_size=10).map(
        lambda v: PiecewiseLinear(*(np.array(c) for c in zip(*sorted(v, key=lambda p: p[0]))))
    ),
    st.builds(
        _gaussian, st.floats(-10, 10), st.floats(0.05, 5), st.integers(-32, 32), st.integers(-32, 32)
    ),
)


@given(closed_form_shapes, st.lists(cut_alphas, min_size=1, max_size=6))
@example(_gaussian(0.0, 1.0, -32, 32), [1e-6])  # the cut reaches past the window
def test_closed_form_cuts_against_sampled_scan(mf, alphas):
    samples = 2001
    exact = alpha_lengths(mf, alphas)
    sampled = alpha_lengths(mf, alphas, samples, method="sampled")
    w = mf.window()
    h = w.length / (samples - 1)
    for alpha, got, scan in zip(alphas, exact, sampled):
        region = alpha_cut(mf, alpha).region
        # one region per cut, bit-equal to its length
        assert region.total_length == got
        # the sampled scan sees only the window: it is off the cut's part
        # there by at most two grid steps per run
        inside = sum(max(0.0, min(seg.r, w.r) - max(seg.l, w.l)) for seg in region)
        assert abs(inside - scan) <= 2 * h * max(1, len(region.segments)) + 1e-12
        # runs lie in the cut, and the gaps between them do not
        for seg in region:
            ends = mf.membership(np.array([seg.l, (seg.l + seg.r) / 2, seg.r]))
            assert (ends >= alpha - 1e-9).all()
        for left, right in zip(region.segments, region.segments[1:]):
            assert mf.membership((left.r + right.l) / 2) < alpha + 1e-9


SAWTOOTH_XS = np.cumsum(np.random.default_rng(7).uniform(0.1, 1.0, 40))

CUT_SHAPES = [
    *ATTRIBUTE_SHAPES,
    # a dozen runs per cut: their left-to-right sum must match the region's
    PiecewiseLinear(SAWTOOTH_XS, np.tile([0.0, 1.0], 20)),
    triangular(1, 4, 9),
    PiecewiseLinear(np.array([0, 0, 1, 1, 1, 2.0]), np.array([0, 1, 0.5, 0.2, 0.9, 0])),
    Gaussian(5, 1, domain=make_interval(6, 12)),
]


@pytest.mark.parametrize("mf", CUT_SHAPES, ids=lambda mf: type(mf).__name__)
@pytest.mark.parametrize("method", ["auto", "sampled"])
def test_alpha_cut_total_equals_alpha_length(mf, method):
    for alpha in (0.01, *np.arange(1, 11) / 10):
        total = alpha_cut(mf, alpha, 501, method=method).region.total_length
        assert total == alpha_length(mf, alpha, 501, method=method)


SAMPLED_DIGEST = "7408dd8aa08236f3c789741e116e19f344f4ef110a95722d704a6d1873a00282"


def _sampled_outputs():
    shapes = [
        *ATTRIBUTE_SHAPES,
        Gaussian(5, 1, domain=make_interval(0, 10)),
        triangular(1, 4, 9),
        trapezoidal(0, 2, 6, 9),
    ]
    ladder = [0.7, 0.1, 0.7, 1.0, 0.05, 0.3]
    values = []
    for mf in shapes:
        for samples in (17, 1001):
            values += alpha_lengths(mf, ladder, samples, method="sampled").tolist()
            values += [gamma_alpha(mf, 10, samples, method="sampled").gamma]
            for alpha in ladder:
                cut = alpha_cut(mf, alpha, samples, method="sampled")
                values += [v for seg in cut.region for v in (seg.l, seg.r)]
    return np.array(values, dtype="<f8")


def test_sampled_method_keeps_its_bits():
    # digest of the sampled path's lengths, gammas and cut ends, taken before
    # the closed-form cuts were added; method="sampled" is the cross-check
    digest = hashlib.sha256(_sampled_outputs().tobytes()).hexdigest()
    assert digest == SAMPLED_DIGEST
