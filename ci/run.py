"""Run the CI workflow here: ``python3 ci/run.py``. Each ``run:`` command of
.github/workflows/ci.yml after the install runs in order through the shell, in a
fresh process from the checkout root. Prints each command, its wall time and its
last line (stderr's, if it failed); exits 1 if any step failed."""
import re, subprocess, sys, time
from pathlib import Path
ROOT = Path(__file__).resolve().parents[1]

def steps(workflow):
    """The ``run:`` commands in order, but the first, which installs the test dependencies."""
    return re.findall(r"^ +run: (.*)$", workflow, re.M)[1:]

def main():
    failed = 0
    for command in steps((ROOT / ".github" / "workflows" / "ci.yml").read_text()):
        start = time.perf_counter()
        done = subprocess.run(command, shell=True, cwd=ROOT, capture_output=True, text=True)
        lines = (done.stdout + (done.stderr if done.returncode else "")).strip().splitlines()
        failed += done.returncode != 0
        print(f"{'FAILED' if done.returncode else 'ok'} {time.perf_counter() - start:.1f} s: {command}\n"
              f"    {lines[-1] if lines else ''}", flush=True)
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
