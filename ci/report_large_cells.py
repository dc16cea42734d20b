"""iaa report on a 200k-row survey from stdin in a child process: its peak RSS and the oracle's bytes."""
import io
from _common import children_peak_mb, iaa_popen, survey_csv
# the child starts before numpy is imported here: a forked child's peak counts our pages
child = iaa_popen("report", "--input", "-")
from helpers import oracle_report
from intervalagreement.survey import load_survey, report_to_csv
text = survey_csv(2000, 20)
out, _ = child.communicate(text.encode())
assert child.returncode == 0, "iaa report failed"
peak_mb = children_peak_mb()
assert peak_mb < 100, f"iaa report peak RSS {peak_mb:.1f} MB"
want = report_to_csv(oracle_report(load_survey(io.StringIO(text)))).encode()
assert out.count(b"\n") == 106, "expected a header and 105 rows"
assert out == want, "iaa report bytes differ from the per-cell oracle"
print(f"iaa report on {len(text.splitlines()) - 1} rows: peak RSS {peak_mb:.1f} MB, 106 lines equal")
