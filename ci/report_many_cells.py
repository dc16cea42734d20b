"""iaa report on a 3,125-cell survey, as it is, blank-rowed and quoted: the reference's and oracle's bytes."""
import io
import numpy as np
from _common import iaa, written
import reference
from helpers import oracle_report
from intervalagreement.survey import load_survey, report_to_csv
rng = np.random.default_rng(np.random.SeedSequence([1, 625]))
lo = rng.uniform(0.0, 9.0, size=(4, 625, 20))
hi = np.minimum(lo + rng.uniform(0.05, 3.0, size=lo.shape), 10.0)
rows = [
    f"G{g + 1},P{p + 1:02d},T{t:03d},{lo[g, t, p]:.2f},{hi[g, t, p]:.2f}"
    for g in range(4) for t in range(625) for p in range(20)
]
text = "group,participant_id,term,l,r\n" + "\n".join(rows) + "\n"
def report(text, *args):
    return iaa("report", "--input", written(text), *args)
out = report(text)
want = reference.seed_report_csv(text).encode()
assert out.count(b"\n") == 3126, "expected a header and 3,125 rows"
assert out == want, "iaa report bytes differ from the reference"
blank = report(text.replace("\n", "\n , , , , \n", 1))
assert blank == want, "a row of blanks after the header changed the iaa report bytes"
quoted = report("group,participant_id,term,l,r\n" + "".join(
    '"{}","{}","{}",{},{}\n'.format(*row.split(",")) for row in rows))
assert quoted == want, "quoting every name changed the iaa report bytes"
ds = load_survey(io.StringIO(text))
for samples in (2, 101, 4001):  # 33 to 153 coordinates a cell: looked up, then placed
    want = report_to_csv(oracle_report(ds, samples=samples)).encode()
    assert report(text, "--samples", str(samples)) == want, f"bytes differ at {samples} samples"
print("3,125-cell report bytes equal the reference and, at 2, 101 and 4001 samples, the oracle")
