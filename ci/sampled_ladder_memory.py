"""The grid bit check's Sampled at 10,000,001 samples: traced peaks of alpha_lengths and attributes."""
import tracemalloc
import numpy as np
from _common import noisy_sampled
import intervalagreement as ia
from intervalagreement.fuzzyset import alpha_lengths
n = 10_000_001
mf = noisy_sampled()
alphas = np.arange(1, 21) / 20
# a whole membership array would be 76 MB: the cuts are found on the 100,001 source
# points, and attributes walks the grid a chunk at a time for its sums and height;
# bounds are the peaks measured on this input (1.83 and 0.90 MB) plus about 20%
for name, run, bound in (("alpha_lengths", lambda: alpha_lengths(mf, alphas, n), 2.2),
                         ("attributes", lambda: ia.attributes(mf, n), 1.1)):
    tracemalloc.start()
    run()
    peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    assert peak_mb < bound, f"{name} traced peak {peak_mb:.2f} MB"
    print(f"{name} at {n} samples: traced peak {peak_mb:.2f} MB")
