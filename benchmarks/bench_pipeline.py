"""Seeded pipeline benchmark of the ``intervalagreement`` package.

Run from anywhere; the package is imported from ``src/`` of the checkout
this file lives in:

    python3 benchmarks/bench_pipeline.py --label change
    python3 benchmarks/bench_pipeline.py --label parent --out path/to/BENCH_pipeline.json

Each run is one entry in the output JSON (default ``BENCH_pipeline.json`` at
the checkout root), keyed by ``--label``: a run under a label already in the
file replaces that entry, so one file can hold the parent and the change side
by side. An entry records the git revision (``git describe --always
--dirty``), the Python and numpy versions, the machine and the sections
below.

Sections:

* ``report_cells``: ``survey.report`` (exact, 1001 samples) on one seeded
  50,000-row survey of 4 groups, with 5, 50 and 625 terms (25, 250 and
  3,125 cells; 2,500, 250 and 20 participants per cell). Loading is not
  timed. Each size is run REPEATS times after one warm-up; the best and the
  median are kept.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from intervalagreement import survey  # noqa: E402

ROWS = 50_000
GROUPS = 4
TERM_COUNTS = (5, 50, 625)
SEED = 20_201_115
REPEATS = 7


def survey_text(terms: int, seed: int = SEED) -> str:
    """A ROWS-row survey: GROUPS groups x ``terms`` terms, one response per
    participant per cell, endpoints on [0, 10] rounded to 0.01."""
    participants = ROWS // (GROUPS * terms)
    rng = np.random.default_rng(np.random.SeedSequence([seed, terms]))
    lo = rng.uniform(0.0, 9.0, size=(GROUPS, terms, participants))
    hi = np.minimum(lo + rng.uniform(0.05, 3.0, size=lo.shape), 10.0)
    lines = ["group,participant_id,term,l,r"]
    for g in range(GROUPS):
        for t in range(terms):
            lines.extend(
                f"G{g + 1},P{p + 1:04d},T{t:03d},{lo[g, t, p]:.2f},{hi[g, t, p]:.2f}"
                for p in range(participants)
            )
    return "\n".join(lines) + "\n"


def report_cells() -> list[dict]:
    points = []
    for terms in TERM_COUNTS:
        ds = survey.load_survey(io.StringIO(survey_text(terms)))
        rep = survey.report(ds)  # warm-up
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            survey.report(ds)
            times.append(time.perf_counter() - start)
        points.append({
            "terms": terms,
            "cells": len(rep.rows) + len(rep.skipped),
            "best_s": min(times),
            "median_s": statistics.median(times),
        })
    return points


def machine() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor() or "unknown cpu"
    return f"{platform.machine()}, {model}, {os.cpu_count()} cpus"


def revision() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this run's entry")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_pipeline.json")
    args = parser.parse_args(argv)
    entry = {
        "label": args.label,
        "git": revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": machine(),
        "report_cells": {
            "rows": ROWS, "groups": GROUPS, "samples": survey.DEFAULT_SAMPLES,
            "points": report_cells(),
        },
    }
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    runs = [run for run in runs if run["label"] != args.label] + [entry]
    args.out.write_text(json.dumps({"seed": SEED, "runs": runs}, indent=2) + "\n")
    for p in entry["report_cells"]["points"]:
        print(f"{args.label}: report, {p['cells']:5d} cells: best {p['best_s'] * 1e3:8.2f} ms, "
              f"median {p['median_s'] * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
