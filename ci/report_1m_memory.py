"""iaa report on a 1M-row survey from stdin in a child process: its peak RSS; here, traced peaks of its steps."""
import io, tracemalloc
from _common import children_peak_mb, iaa_popen, survey_csv
# the child starts before numpy is imported here: a forked child's peak counts our pages
child = iaa_popen("report", "--input", "-")
from intervalagreement import survey
from intervalagreement.survey import load_survey, report, report_to_csv
text = survey_csv(10_000, 10_000)
out, _ = child.communicate(text.encode())
assert child.returncode == 0, "iaa report failed"
peak_mb = children_peak_mb()
assert peak_mb < 130, f"iaa report peak RSS {peak_mb:.1f} MB"
survey.TEXT_LINES = 1 << 21  # above the row count: one block, as a whole-column load
ds = load_survey(io.StringIO(text))
tracemalloc.start()
ds._index  # one stable sort of the 1,000,000 (term, group) keys
index_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
assert index_mb < 20, f"cell index traced peak {index_mb:.1f} MB"
tracemalloc.start()
rep = report(ds)  # blocks costing up to GRID_CHUNK, but for a larger cell
report_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
assert report_mb < 20, f"report traced peak {report_mb:.1f} MB"
want = report_to_csv(rep).encode()
assert out.count(b"\n") == 106, "expected a header and 105 rows"
assert out == want, "iaa report bytes differ from the one-block load's"
print(f"iaa report on 1,000,000 rows: peak RSS {peak_mb:.1f} MB, 106 lines equal; "
      f"cell index traced peak {index_mb:.1f} MB, report traced peak {report_mb:.1f} MB")
