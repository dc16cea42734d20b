"""iaa gamma on a 1,000,000-line interval list, from a file and from stdin, in child processes.
This process writes the list, then execs into its measuring half, given the file: the writer
is no child, and no child is forked from its pages."""
import atexit, io, os, sys
from _common import children_peak_mb, iaa_popen, interval_list, written
if len(sys.argv) == 1:
    os.execv(sys.executable, [sys.executable, __file__, written(interval_list(1_000_000))])
path = sys.argv[1]
atexit.register(os.unlink, path)
# both children start before this process holds their input or output or imports
# numpy: a forked child's peak counts our pages
from_file = iaa_popen("gamma", "--input", path)
from_stdin = iaa_popen("gamma", "--input", "-")
with open(path, "rb") as fh:
    piped, _ = from_stdin.communicate(fh.read())
out, _ = from_file.communicate()
assert from_file.returncode == from_stdin.returncode == 0, "iaa gamma failed"
peak_mb = children_peak_mb()
assert peak_mb < 104, f"iaa gamma peak RSS {peak_mb:.1f} MB"  # 91.2 MB measured on this input, +14%
assert piped == out, "stdin bytes differ from the file's"
from helpers import oracle_print_breakdown, parse_each_line
from intervalagreement import IntervalCollection, gamma_exact
with open(path) as fh:
    coll = IntervalCollection(parse_each_line(fh.read()))
want = io.StringIO()
oracle_print_breakdown(gamma_exact(coll), want)
assert out == want.getvalue().encode(), "iaa gamma bytes differ from the per-line printer"
print(f"iaa gamma on 1,000,000 lines: peak RSS {peak_mb:.1f} MB, {len(out.splitlines())} lines equal")
