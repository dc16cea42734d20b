"""perfbench/run.py on one workload at seed 1 for 2 s, its output checked; traced, every function
it traces must still exist: ``python3 ci/bench_smoke.py WORKLOAD TRACE``, TRACE 0 or 1."""
import json, subprocess, sys
workload, trace = sys.argv[1:]
out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                      "--seconds", "2", "--trace", trace], stdout=subprocess.PIPE, text=True).stdout
print(out, end="")
lines = out.splitlines()
if trace == "1":
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
    # _kernels.* are stale targets the benchmark still lists; anything else is a lost function
    lost = [f for f in detail["missing_functions"] if not f.startswith("_kernels.")]
    assert not lost, f"traced functions no longer found: {lost}"
assert json.loads(lines[-1])["correct"] is True, "benchmark output check failed"
