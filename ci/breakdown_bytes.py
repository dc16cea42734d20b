"""iaa gamma on the 200k-line interval list, exact and alpha: the per-line printer's bytes."""
import io
from _common import iaa, interval_list, written
from helpers import oracle_print_breakdown
from intervalagreement.cli import parse_interval_lines
from intervalagreement.survey import cell_gamma
text = interval_list(200_000)
path, coll = written(text), parse_interval_lines(text)
for flags, mode, cuts in (([], "exact", 10), (["--mode", "alpha", "--alpha-cuts", "10000"], "alpha", 10_000)):
    out = iaa("gamma", "--input", path, *flags)
    want = io.StringIO()
    oracle_print_breakdown(cell_gamma(coll, mode, cuts), want)
    assert out == want.getvalue().encode(), f"iaa gamma {mode} bytes differ from the per-line printer"
    print(f"iaa gamma {mode}: {len(out.splitlines())} lines, bytes equal")
