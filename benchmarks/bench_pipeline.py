"""Seeded pipeline benchmark of the ``intervalagreement`` package.

Run from anywhere; the package is imported from ``src/`` of the checkout
this file lives in:

    python3 benchmarks/bench_pipeline.py --label change
    python3 benchmarks/bench_pipeline.py --label parent --out path/to/BENCH_pipeline.json

Each run is one entry in the output JSON (default ``BENCH_pipeline.json`` at
the checkout root), written on one line and keyed by ``--label``: a run under
a label already in the file replaces that entry, so one file can hold the
parent and the change side by side. An entry records the git revision, the
Python and numpy versions, the machine and the sections below. The revision is
``git describe --always --dirty`` in a git checkout; in a tree extracted with
``git archive``, where that fails, it is the short commit id that the archive
wrote into ARCHIVED_REVISION (``.gitattributes`` marks this file
``export-subst``). Archives of commits made before that mark still record
``"unknown"``.

Sections:

* ``report_cells``: ``survey.report`` (exact, 1001 samples) on one seeded
  50,000-row survey of 4 groups, with 5, 50 and 625 terms (25, 250 and
  3,125 cells; 2,500, 250 and 20 participants per cell), and on a paper-sized
  survey (PAPER_GROUPS groups x PAPER_PARTICIPANTS participants x 5 terms,
  unrounded endpoints: 20 cells, whose grid rows ``_report_block`` places), and
  the number of blocks ``survey._report_block`` measures them in, and the
  ``tracemalloc`` peak of one more call. Loading is not
  timed. Its ``samples_sweep`` runs the 25-cell survey at each of
  REPORT_SAMPLES samples, and adds the ``tracemalloc`` peak of one more call.
* ``load``: ``survey.load_survey`` on the 5-term survey above (50,000 rows)
  as it is, with one row of blanks after the header, with a reversed last
  row, with a repeat of the first row at the end and with every name field
  in double quotes (read by ``csv.reader``, not split directly); and
  ``cli.parse_interval_lines`` on LINES seeded lines, as they are and with a
  reversed last line. The bad inputs raise, and the error's type and line
  are kept. Each case adds the ``tracemalloc`` peak of one more call, which
  counts the ``io.StringIO`` a survey is read from.
* ``alpha``: ``attributes`` of a Gaussian, a triangle, a trapezoid, a
  POLYLINE_VERTICES-vertex ``PiecewiseLinear`` and a seeded noisy ``Sampled``
  grid, ``jaccard`` of the triangle and the trapezoid and of the polyline and
  the triangle, and the ``Sampled`` grid's ALPHA_CUTS-cut ``alpha_lengths`` and
  ``gamma_alpha``, at each of ALPHA_SAMPLES samples; the three ``Sampled`` cases
  also at each of SAMPLED_SAMPLES past them, to show how their cost grows with
  the samples. The triangle and trapezoid are evaluated
  by slices of each grid chunk, the polyline (under 2,048 grid points per
  vertex at each of these sample counts) by ``np.interp``. Then ``attributes``
  of a polyline with each of TIED_JUMPS vertical jumps and its ``jaccard``
  with itself, at TIED_SAMPLES samples: every grid chunk reads its
  ``_membership``, which gives each tied vertex its max-of-ties value. Each
  case adds the ``tracemalloc`` peak of one more call.
* ``attrs``: ``attributes(build_iaa(...))``, the work of ``iaa attrs``, on the
  step function of each of ATTRS_LISTS seeded interval lists, at each of
  ATTRS_SAMPLES samples. The 20,000-line list is shaped as perfbench's
  gamma-large one. The unrounded list has a breakpoint per endpoint, too dense
  for ``PiecewiseConstant._on_grid``'s slices at either sample count, so its
  grid chunks take ``_membership``.
* ``gamma``: the stages of ``iaa gamma`` on each of GAMMA_LINES seeded
  interval lines: ``cli.parse_interval_lines`` (of the lines as they are, whose
  blocks numpy's C line reader reads, and, as ``parse fallback``, with a
  comment line and a whitespace-only line after every FALLBACK_EVERY lines, so
  that reader refuses every block and reads it again with its blank lines
  emptied), ``gamma_exact`` and
  ``cli._print_breakdown`` of the exact breakdown and of the GAMMA_CUTS-cut
  ``gamma_alpha`` one, printed to ``os.devnull``, and of the exact breakdown
  of the list scaled by GAMMA_MS_SCALE, whose lengths ``%`` formats; each
  print adds the ``tracemalloc`` peak of one more call.
* ``sweep``: the exact γ path's stages on their own, on SWEEP_LINES seeded
  intervals, with unrounded endpoints (about 2n distinct coordinates) and with
  endpoints rounded to 0.01 (heavy ties): ``coverage_cells``, ``level_runs``
  of its counts and ``gamma_exact``.

Every case is run REPEATS times after one warm-up, and keeps the best, the
quartiles and the median of those calls, and their minor page faults per
call (``ru_minflt``), which count fresh memory the calls touched.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import intervalagreement as ia  # noqa: E402
from intervalagreement import AgreementError, IntervalCollection, survey  # noqa: E402
from intervalagreement.fuzzyset import alpha_lengths  # noqa: E402
from intervalagreement.intervals import coverage_cells, level_runs  # noqa: E402
from intervalagreement.cli import _print_breakdown, parse_interval_lines  # noqa: E402

ROWS = 50_000
GROUPS = 4
TERM_COUNTS = (5, 50, 625)
REPORT_SAMPLES = (1_001, 100_001, 1_000_001)
SEED = 20_201_115
REPEATS = 7
LINES = 200_000
ALPHA_SAMPLES = (10_001, 100_001, 1_000_001)
SAMPLED_SAMPLES = (10_000_001,)
ALPHA_CUTS = 20
POLYLINE_VERTICES = 4_000
TIED_JUMPS = (1_000, 4_000)
TIED_SAMPLES = 100_001
ATTRS_LISTS = ((20_000, 3), (LINES, 2), (LINES, None))  # (lines, decimals kept; None: all)
ATTRS_SAMPLES = (1_001, 1_000_001)
GAMMA_LINES = (20_000, 200_000, 1_000_000)
GAMMA_CUTS = 10_000
SWEEP_LINES = (5_000, 20_000, 80_000)
GAMMA_MS_SCALE = 1.6e10  # [0, 100] to epoch milliseconds: lengths past 2**51 millionths
PAPER_GROUPS, PAPER_PARTICIPANTS = 3, 40
FALLBACK_EVERY = 1_000  # lines between decorations, so each TEXT_LINES block holds some


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


def paper_text(seed: int = SEED) -> str:
    """A paper-sized survey: PAPER_GROUPS groups x PAPER_PARTICIPANTS participants x 5
    terms, each answer a half-width in [0.25, 1.5] about a centre drawn per term,
    unrounded, so a cell's coordinates are all distinct: 80, or 240 in an "ALL" cell."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    shape = (PAPER_GROUPS, PAPER_PARTICIPANTS, 5)
    centre = np.clip(rng.normal(np.array([8.5, 7.0, 5.0, 3.0, 1.5]), 1.0, shape), 1.5, 8.5)
    half = rng.uniform(0.25, 1.5, shape)
    lo, hi = (centre - half).tolist(), (centre + half).tolist()
    lines = ["group,participant_id,term,l,r"]
    lines.extend(f"G{g + 1},P{p + 1:03d},T{t},{lo[g][p][t]!r},{hi[g][p][t]!r}"
                 for g, p, t in np.ndindex(shape))
    return "\n".join(lines) + "\n"


def report_cells() -> list[dict]:
    points = []
    cases = [(terms, survey_text(terms)) for terms in TERM_COUNTS] + [("paper", paper_text())]
    for terms, text in cases:
        ds = survey.load_survey(io.StringIO(text))
        blocks, block = [], survey._report_block
        with mock.patch.object(survey, "_report_block", lambda *a: blocks.append(1) or block(*a)):
            rep = survey.report(ds)  # warm-up
        cells = len(rep.rows) + len(rep.skipped)
        run = functools.partial(survey.report, ds)
        points.append({"terms": terms, "cells": cells, "blocks": len(blocks), **repeated(run),
                       "tracemalloc_peak_mb": traced_peak_mb(run)})
    return points


def report_samples() -> list[dict]:
    ds = survey.load_survey(io.StringIO(survey_text(TERM_COUNTS[0])))
    points = []
    for n in REPORT_SAMPLES:
        run = functools.partial(survey.report, ds, samples=n)
        run()  # warm-up
        points.append({"samples": n, **repeated(run), "tracemalloc_peak_mb": traced_peak_mb(run)})
    return points


def interval_pairs(lines: int = LINES, seed: int = SEED) -> np.ndarray:
    """``lines`` sorted (l, r) rows, endpoints uniform on [0, 100]."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, lines]))
    return np.sort(rng.uniform(0.0, 100.0, size=(lines, 2)), axis=1)


def interval_text(lines: int = LINES, seed: int = SEED) -> str:
    """``lines`` interval lines ``l,r``, endpoints on [0, 100] rounded to 0.01."""
    return "".join(f"{l:.2f},{r:.2f}\n" for l, r in interval_pairs(lines, seed))


def repeated(run) -> dict:
    """Best, quartiles and median of REPEATS calls of an already warm ``run``,
    and their minor page faults per call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {
        "best_s": min(times), "q1_s": q1, "median_s": median, "q3_s": q3,
        "minflt_per_call": faults / REPEATS,
    }


def traced_peak_mb(run) -> float:
    """The ``tracemalloc`` peak of one more call of ``run``, in MB."""
    tracemalloc.start()
    run()
    peak = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return peak


def timed(run) -> dict:
    """``repeated`` after one warm-up, the error the call raises, if any, and
    the ``tracemalloc`` peak of one more call."""
    def once():
        try:
            run()
        except AgreementError as exc:
            return {"raises": type(exc).__name__, "line": exc.line}
        return {"raises": None, "line": None}

    outcome = once()
    return {**repeated(once), **outcome, "tracemalloc_peak_mb": traced_peak_mb(once)}


def load() -> list[dict]:
    text = survey_text(TERM_COUNTS[0])
    header, _, body = text.partition("\n")
    surveys = {
        "clean": text,
        "blank_row": f"{header}\n , , , , \n{body}",
        "bad_last_row": text + "G1,P9999,T000,6.00,4.00\n",
        "duplicate_last_row": text + body.partition("\n")[0] + "\n",
        "quoted": header + "\n" + "".join(
            '"{}","{}","{}",{},{}\n'.format(*row.split(",")) for row in body.splitlines()
        ),
    }
    lines = interval_text()
    cases = [
        {"input": "survey", "case": case, **timed(lambda t=t: survey.load_survey(io.StringIO(t)))}
        for case, t in surveys.items()
    ]
    return cases + [
        {"input": "interval_lines", "case": case, **timed(lambda t=t: parse_interval_lines(t))}
        for case, t in (("clean", lines), ("bad_last_line", lines + "5,1\n"))
    ]


def sampled_grid(seed: int = SEED) -> tuple[np.ndarray, np.ndarray]:
    """100,001 points on [0, 20]: two Gaussian bumps plus seeded noise, clipped to [0, 1]."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 100_001]))
    xs = np.linspace(0.0, 20.0, 100_001)
    bumps = np.exp(-((xs - 7.0) ** 2) / 4.0) + 0.6 * np.exp(-((xs - 13.0) ** 2) / 2.0)
    return xs, np.clip(bumps + rng.normal(0.0, 0.03, xs.size), 0.0, 1.0)


def polyline() -> ia.PiecewiseLinear:
    """POLYLINE_VERTICES evenly spaced vertices on [0, 9] of (1 + sin 7x) / 2."""
    xs = np.linspace(0.0, 9.0, POLYLINE_VERTICES)
    return ia.PiecewiseLinear(xs, (1.0 + np.sin(7.0 * xs)) / 2.0)


def tied_polyline(jumps: int) -> ia.PiecewiseLinear:
    """``jumps`` evenly spaced vertical jumps on [0, 9], each from (1 + sin 7x) / 2 up or
    down to (1 + cos 7x) / 2."""
    ux = np.linspace(0.0, 9.0, jumps)
    mus = np.column_stack([1.0 + np.sin(7.0 * ux), 1.0 + np.cos(7.0 * ux)]) / 2.0
    return ia.PiecewiseLinear(np.repeat(ux, 2), mus.ravel())


def alpha() -> list[dict]:
    shapes = {
        "gaussian": ia.Gaussian(5.0, 1.0),
        "triangle": ia.triangular(1.0, 4.0, 9.0),
        "trapezoid": ia.trapezoidal(0.0, 2.0, 6.0, 9.0),
        "polyline": polyline(),
        "sampled": ia.Sampled(*sampled_grid()),
    }
    ladder = np.arange(1, ALPHA_CUTS + 1) / ALPHA_CUTS
    cases = []
    for n in ALPHA_SAMPLES + SAMPLED_SAMPLES:
        calls = {f"attributes {k}": lambda mf=mf: ia.attributes(mf, n) for k, mf in shapes.items()}
        tri, trap = shapes["triangle"], shapes["trapezoid"]
        calls["jaccard triangle trapezoid"] = lambda: ia.jaccard(tri, trap, n)
        calls["jaccard polyline triangle"] = lambda: ia.jaccard(shapes["polyline"], tri, n)
        calls["alpha_lengths sampled"] = lambda: alpha_lengths(shapes["sampled"], ladder, n)
        calls["gamma_alpha sampled"] = lambda: ia.gamma_alpha(shapes["sampled"], ALPHA_CUTS, n)
        for case, run in calls.items():
            if n in SAMPLED_SAMPLES and not case.endswith(" sampled"):
                continue
            run()  # warm-up
            cases.append({"case": case, "samples": n, **repeated(run),
                          "tracemalloc_peak_mb": traced_peak_mb(run)})
    for jumps in TIED_JUMPS:
        pl = tied_polyline(jumps)
        calls = {"attributes tied": lambda: ia.attributes(pl, TIED_SAMPLES),
                 "jaccard tied tied": lambda: ia.jaccard(pl, pl, TIED_SAMPLES)}
        for case, run in calls.items():
            run()  # warm-up
            cases.append({"case": case, "jumps": jumps, "samples": TIED_SAMPLES, **repeated(run),
                          "tracemalloc_peak_mb": traced_peak_mb(run)})
    return cases


def attrs() -> list[dict]:
    cases = []
    for lines, decimals in ATTRS_LISTS:
        pairs = interval_pairs(lines)
        if decimals is not None:
            pairs = np.round(pairs, decimals)
        fs = ia.build_iaa(IntervalCollection._from_arrays(*np.ascontiguousarray(pairs.T)))
        for n in ATTRS_SAMPLES:
            run = functools.partial(ia.attributes, fs, n)
            run()  # warm-up
            cases.append({"lines": lines, "decimals": decimals,
                          "breakpoints": fs.breakpoints.size, "samples": n, **repeated(run)})
    return cases


def gamma() -> list[dict]:
    cases = []
    with open(os.devnull, "w") as sink:
        for n in GAMMA_LINES:
            text = interval_text(n)
            coll = parse_interval_lines(text)
            ends = coll.endpoints()
            breakdowns = {
                "print exact": ia.gamma_exact(coll),
                "print alpha": ia.gamma_alpha(ia.build_iaa(coll), cuts=GAMMA_CUTS),
                "print exact ms": ia.gamma_exact(
                    IntervalCollection._from_arrays(*(e * GAMMA_MS_SCALE for e in ends))),
            }
            lines = text.splitlines()
            fallback = "".join(
                "\n".join(lines[a:a + FALLBACK_EVERY]) + "\n# comment\n  \n"
                for a in range(0, n, FALLBACK_EVERY))
            calls = {
                "parse": lambda: parse_interval_lines(text),
                "parse fallback": lambda: parse_interval_lines(fallback),
                "gamma_exact": functools.partial(ia.gamma_exact, coll),
                **{case: functools.partial(_print_breakdown, bd, sink) for case, bd in breakdowns.items()},
            }
            for case, run in calls.items():
                run()  # warm-up
                point = {"case": case, "lines": n, **repeated(run)}
                if case in breakdowns:
                    point["levels"] = breakdowns[case].weights.size
                    point["tracemalloc_peak_mb"] = traced_peak_mb(run)
                cases.append(point)
    return cases


def sweep() -> list[dict]:
    cases = []
    for n in SWEEP_LINES:
        for decimals in (None, 2):
            pairs = interval_pairs(n)
            if decimals is not None:
                pairs = np.round(pairs, decimals)
            coll = IntervalCollection._from_arrays(*np.ascontiguousarray(pairs.T))
            coords, counts = coverage_cells(coll)
            calls = {
                "coverage_cells": functools.partial(coverage_cells, coll),
                "level_runs": functools.partial(level_runs, counts),
                "gamma_exact": functools.partial(ia.gamma_exact, coll),
            }
            for case, run in calls.items():
                run()  # warm-up
                cases.append({"case": case, "lines": n, "decimals": decimals,
                              "coordinates": coords.size, **repeated(run)})
    return cases


def machine() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor() or "unknown cpu"
    return f"{platform.machine()}, {model}, {os.cpu_count()} cpus"


ARCHIVED_REVISION = "$Format:%h$"  # git archive writes the short commit id here


def revision() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown" if ARCHIVED_REVISION.startswith("$") else ARCHIVED_REVISION


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
            "points": report_cells(), "samples_sweep": report_samples(),
        },
        "load": {"rows": ROWS, "lines": LINES, "cases": load()},
        "alpha": {"cuts": ALPHA_CUTS, "cases": alpha()},
        "attrs": {"cases": attrs()},
        "gamma": {"cuts": GAMMA_CUTS, "cases": gamma()},
        "sweep": {"cases": sweep()},
    }
    runs = json.loads(args.out.read_text())["runs"] if args.out.exists() else []
    runs = [run for run in runs if run["label"] != args.label] + [entry]
    lines = ",\n".join(json.dumps(run) for run in runs)  # one run a line
    args.out.write_text(f'{{"seed": {SEED}, "runs": [\n{lines}\n]}}\n')
    for p in entry["report_cells"]["points"]:
        print(f"{args.label}: report, {p['cells']:5d} cells in {p['blocks']:3d} blocks: best "
              f"{p['best_s'] * 1e3:8.2f} ms, median {p['median_s'] * 1e3:8.2f} ms, "
              f"tracemalloc peak {p['tracemalloc_peak_mb']:7.2f} MB")
    for p in entry["report_cells"]["samples_sweep"]:
        print(f"{args.label}: report, 25 cells, {p['samples']:7d} samples: best "
              f"{p['best_s'] * 1e3:8.2f} ms, median {p['median_s'] * 1e3:8.2f} ms, "
              f"tracemalloc peak {p['tracemalloc_peak_mb']:7.2f} MB")
    for c in entry["load"]["cases"]:
        print(f"{args.label}: load {c['input']} {c['case']}: best {c['best_s'] * 1e3:8.2f} ms, "
              f"median {c['median_s'] * 1e3:8.2f} ms, tracemalloc peak "
              f"{c['tracemalloc_peak_mb']:7.2f} MB, raises {c['raises']} at line {c['line']}")
    for c in entry["alpha"]["cases"]:
        jumps = f", {c['jumps']} jumps" if "jumps" in c else ""
        print(f"{args.label}: alpha {c['case']}{jumps}, {c['samples']} samples: "
              f"best {c['best_s'] * 1e3:8.2f} ms, median {c['median_s'] * 1e3:8.2f} ms, "
              f"{c['minflt_per_call']:8.1f} minor faults/call, "
              f"tracemalloc peak {c['tracemalloc_peak_mb']:7.2f} MB")
    for c in entry["attrs"]["cases"]:
        print(f"{args.label}: attrs {c['lines']} lines to {c['decimals']} decimals "
              f"({c['breakpoints']} breakpoints), {c['samples']} samples: "
              f"best {c['best_s'] * 1e3:8.2f} ms, median {c['median_s'] * 1e3:8.2f} ms")
    for c in entry["gamma"]["cases"]:
        peak = f", tracemalloc peak {c['tracemalloc_peak_mb']:7.2f} MB" if "levels" in c else ""
        print(f"{args.label}: gamma {c['case']}, {c['lines']} lines: best {c['best_s'] * 1e3:8.2f} ms, "
              f"median {c['median_s'] * 1e3:8.2f} ms{peak}")
    for c in entry["sweep"]["cases"]:
        print(f"{args.label}: sweep {c['case']}, {c['lines']} lines to {c['decimals']} decimals "
              f"({c['coordinates']} coordinates): best {c['best_s'] * 1e3:8.3f} ms, "
              f"median {c['median_s'] * 1e3:8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
