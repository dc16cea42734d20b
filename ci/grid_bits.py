"""10,000,001-sample grids in-process: the package's values equal whole np.linspace grids' and np.sum's."""
import numpy as np
from _common import noisy_sampled
import intervalagreement as ia
from intervalagreement.fuzzyset import alpha_lengths
n = 10_000_001
def run_lengths(xs, mus, alphas):
    out = []
    for a in alphas:
        edges = np.diff((mus >= a).astype(np.int8), prepend=0, append=0)
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        total = 0.0
        for width in (xs[stops - 1] - xs[starts]).tolist():
            total += width
        out.append(total)
    return out
fs = ia.build_iaa(ia.collection([(2, 5), (3, 5), (6, 8), (3, 7), (1.5, 4.25)]))
bp, lv = fs.breakpoints, fs.levels
xs = np.linspace(bp[0], bp[-1], n)
# the step membership by a clipped cell index, not by the table the walk reads
idx = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, lv.size - 1)
mus = np.where((xs == bp[idx]) & (idx >= 1), np.maximum(lv[idx], lv[idx - 1]), lv[idx])
del idx
mus = np.where((xs >= bp[0]) & (xs <= bp[-1]), mus, 0.0)
assert np.array_equal(fs.membership(xs).view(np.int64), mus.view(np.int64)), "step membership differs"
assert ia.attributes(fs, n).centroid == (xs * mus).sum() / mus.sum(), "step centroid differs"
tri, trap = ia.triangular(1.0, 4.0, 9.0), ia.trapezoidal(0.0, 2.0, 6.0, 9.0)
xs = np.linspace(0.0, 9.0, n)
ma, mb = np.interp(xs, tri.xs, tri.mus), np.interp(xs, trap.xs, trap.mus)
del xs
want = np.minimum(ma, mb).sum() / np.maximum(ma, mb).sum()
del ma, mb
assert ia.jaccard(tri, trap, n) == want, "jaccard differs"
for mf in (tri, trap):
    xs = np.linspace(mf.xs[0], mf.xs[-1], n)
    mus = np.interp(xs, mf.xs, mf.mus)
    assert ia.attributes(mf, n).centroid == (xs * mus).sum() / mus.sum(), "linear centroid differs"
xs = np.linspace(0.0, 10.0, n)  # Gaussian(5, 1)'s window, mean +/- 5 stddev
mus = xs - 5.0  # membership as first written: squared, negated, over 2 stddev^2, exp
np.square(mus, out=mus)
np.negative(mus, out=mus)
mus /= 2.0 * 1.0**2
np.exp(mus, out=mus)
assert ia.attributes(ia.Gaussian(5.0, 1.0), n).centroid == (xs * mus).sum() / mus.sum(), "Gaussian centroid differs"
xs = np.linspace(0.0, 10.0, n)
at = xs[3_000_000]  # a grid point: the jump's max-of-ties value is read there
jump = ia.PiecewiseLinear(np.array([0.0, at, at, 6.0]), np.array([0.0, 1.0, 0.3, 0.0]))
tri10 = ia.triangular(1.0, 4.0, 10.0)
ma, mb = np.interp(xs, jump.xs, jump.mus, left=0.0, right=0.0), np.interp(xs, tri10.xs, tri10.mus)
ma[xs == at] = 1.0  # np.interp reads the last tie, 0.3
del xs
want = np.minimum(ma, mb).sum() / np.maximum(ma, mb).sum()
del ma, mb
assert ia.jaccard(jump, tri10, n) == want, "vertical-jump jaccard differs"
mf = noisy_sampled()
xs = np.linspace(0.0, 20.0, n)
mus = mf.mus[np.rint(xs / (20.0 / 100_000)).astype(np.int64)]
alphas = np.arange(1, 21) / 20
assert alpha_lengths(mf, alphas, n).tolist() == run_lengths(xs, mus, alphas), "alpha ladder differs"
at = ia.attributes(mf, n)
assert at.centroid == (xs * mus).sum() / mus.sum(), "sampled centroid differs"
assert at.height == mus.max(), "sampled height differs"
assert [at.support_length, at.core_length] == run_lengths(xs, mus, [1.0 / n, 1.0]), "sampled support or core differs"
