"""iaa build at 10,000,001 samples in a child process: its peak RSS; at 100,001, the CSV and JSON bytes."""
from _common import children_peak_mb, iaa
# the child starts before numpy is imported here: a forked child's peak counts our pages
build, lines = ("build", "--input", "-"), b"2,5\n3,5\n6,8\n"
out = iaa(*build, "--samples", "10000001", stdin=lines)
peak_mb = children_peak_mb()
assert peak_mb < 60, f"iaa build peak RSS {peak_mb:.1f} MB"
assert out.count(b"\n") == 10_000_002, "expected a header and 10,000,001 lines"
import numpy as np
from intervalagreement import build_iaa, collection
from helpers import series_to_csv, series_to_json
fs = build_iaa(collection([(2, 5), (3, 5), (6, 8)]))
for scale in ([], ["--scale", "-1", "12"]):
    lo, hi = map(float, scale[1:]) if scale else (fs.window().l, fs.window().r)
    xs = np.linspace(lo, hi, 100_001)
    for fmt, text in (("csv", series_to_csv), ("json", series_to_json)):
        got = iaa(*build, "--samples", "100001", "--format", fmt, *scale, stdin=lines)
        assert got == text(xs, fs.membership(xs)).encode(), f"iaa build {fmt} {scale} bytes differ"
print(f"iaa build at 10,000,001 samples: peak RSS {peak_mb:.1f} MB; 100,001-sample bytes equal")
