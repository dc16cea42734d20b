"""iaa report at 10,000,001 samples on the fixture in a child process: its peak RSS and the oracle's bytes."""
from _common import children_peak_mb, iaa
fixture, samples = "tests/data/survey_fixture.csv", 10_000_001
# the child starts before numpy is imported here: a forked child's peak counts our pages
out = iaa("report", "--input", fixture, "--samples", str(samples))
peak_mb = children_peak_mb()
assert peak_mb < 100, f"iaa report peak RSS {peak_mb:.1f} MB"
from helpers import oracle_report
from intervalagreement.survey import load_survey, report_to_csv
want = report_to_csv(oracle_report(load_survey(fixture), samples=samples)).encode()
assert out == want, "iaa report bytes differ from the per-cell oracle"
print(f"iaa report at {samples} samples: peak RSS {peak_mb:.1f} MB, bytes equal")
