"""Layered benchmark of the ``intervalagreement`` package and its ``iaa`` CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload report-paper --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``report-paper``  ``iaa report`` on a cycled pool of 20 paper-sized surveys
* ``report-panel``  ``iaa report`` on one 50k-row, 20-group survey
* ``gamma-large``   ``iaa gamma`` on one 20k-line interval list
* ``alpha-shapes``  ``gamma_alpha``/``attributes`` on four shapes plus ``jaccard``

Each workload is a closed loop: one caller, one process, one thread, the next
op starting when the previous one returns. Inputs come only from ``--seed``.
The package is imported from ``src/`` of the checkout, never from an
installed copy. Every op's output is checked (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of ten
fresh-interpreter imports of the package), ``op_best_s`` (see ``best_op``) and
``peak_rss_mb``. The median, throughput, tail percentile, failed fraction and,
on ``alpha-shapes``, the largest gamma error against the closed forms are
printed beside them. ``--trace 1`` spends half the
time untraced and half with spans around the package's public functions,
reports per-op calls, total and self time per function, the counts, the
tracing overhead, and a scaling sweep of ``gamma_exact``/``level_lengths``.

Human-readable lines and a ``detail`` JSON line (environment, sizes, checks,
every metric) come first; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import importlib.util
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # fresh imports before the timed loop, and again after it
SWEEP_SIZES = (2_500, 5_000, 10_000, 20_000)  # always run
SWEEP_MAX_N = 320_000  # doubling continues up to here while inside the budget
SWEEP_CASE_BUDGET_S = 1.0

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import intervalagreement as m; "
    "d = time.perf_counter() - t; print(d); print(m.__file__)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> list[float]:
    """Fresh-interpreter import times of the package, one per repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not _under_src(lines[1]):
            fail(f"fresh import of the package failed: {proc.stderr.strip()[-500:]}")
        times.append(float(lines[0]))
    return times


def environment(seed: int, sizes: dict) -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    kernels = sys.modules.get("intervalagreement._kernels")
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "sizes": sizes,
    }


def run_loop(
    workload, seconds: float, first: int, min_ops: int = 0
) -> tuple[list[tuple[int, float]], list, list[str]]:
    """Closed loop for `seconds` (and at least `min_ops` ops); returns
    (input index, seconds) per op, output records and the errors of ops that
    raised."""
    timed, records, errors = [], [], []
    start = time.perf_counter()
    i = first
    while i - first < min_ops or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception:  # an op that raises is a failed op; keep measuring
            errors.append(traceback.format_exc(limit=3))
            i += 1
            continue
        timed.append((i % workload.inputs, time.perf_counter() - t0))
        records.append(workload.record(i, result))
        i += 1
    return timed, records, errors


def best_op(timed: list[tuple[int, float]]) -> float | None:
    """Mean over the distinct inputs of each input's fastest op.

    Shared hosts switch between an uncontended and a contended speed (up to
    1.8x apart) every few seconds, so the median and mean flip between the
    two modes from run to run; the best time per input tracks the program's
    own cost, and averaging over inputs keeps every input's cost in it.
    """
    best: dict[int, float] = {}
    for key, seconds in timed:
        best[key] = min(seconds, best.get(key, seconds))
    return statistics.fmean(best.values()) if best else None


def layer_unit(name: str) -> str:
    if name.endswith((".total_s", ".self_s")):
        return "s/op"
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith("scaling_exponent"):
        return "1"
    if name.endswith("max_n_in_budget"):
        return "count"
    if name == "trace.overhead_s":
        return "s"
    return "count/op"


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return {"value": None, "percentile": None, "ops": n}
    return {"value": sorted(times)[n - 11], "percentile": round(100.0 * (n - 10) / n, 2), "ops": n}


def scaling_sweep(seed: int) -> tuple[dict, list[str]]:
    """gamma_exact and level_lengths at doubling n, with a per-case budget."""
    import numpy as np

    import inputs
    import reference as ref
    from intervalagreement import agreement, intervals

    cases = {"agreement.gamma_exact": [], "intervals.level_lengths": []}
    errors = []
    for name, fn in (
        ("agreement.gamma_exact", agreement.gamma_exact),
        ("intervals.level_lengths", intervals.level_lengths),
    ):
        n = SWEEP_SIZES[0]
        while n <= SWEEP_MAX_N:
            pairs = inputs.interval_pairs(seed, n, stream=5)
            coll = intervals.collection(pairs.tolist())
            best = float("inf")
            for _ in range(3):  # best of three, unless one call already costs a tenth of the budget
                t0 = time.perf_counter()
                result = fn(coll)
                best = min(best, time.perf_counter() - t0)
                if best > SWEEP_CASE_BUDGET_S / 10:
                    break
            if name == "agreement.gamma_exact":
                ok = abs(result.gamma - ref.oracle_gamma(*pairs.T)) <= 1e-9
            else:
                ok = np.allclose(result, ref.oracle_level_lengths(*pairs.T), rtol=1e-9, atol=1e-9)
            if not ok:
                errors.append(f"sweep {name} n={n}: result off the oracle")
            over = best > SWEEP_CASE_BUDGET_S
            cases[name].append({"n": n, "s": best, "status": "over_budget" if over else "ok"})
            if over and n >= SWEEP_SIZES[-1]:
                break
            n *= 2
    out = {"budget_s": SWEEP_CASE_BUDGET_S, "cases": cases}
    for name, rows in cases.items():
        # local slope at the top of the range, where per-call overhead matters least
        (n0, t0), (n1, t1) = [(r["n"], r["s"]) for r in rows[-2:]]
        out[f"{name}.scaling_exponent"] = float(np.log(t1 / t0) / np.log(n1 / n0))
        out[f"{name}.max_n_in_budget"] = max(
            (r["n"] for r in rows if r["status"] == "ok"), default=0
        )
    return out, errors


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "intervalagreement" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'intervalagreement'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import intervalagreement

    if not _under_src(intervalagreement.__file__):
        fail(f"imported {intervalagreement.__file__}, not the checkout's source")

    setup_times = measure_setup()
    workload, sizes = workloads.build(args.workload, args.seed)
    env = environment(args.seed, sizes)

    # one checked warm-up op lets lazy set-up finish before timing
    warm, records, errors = run_loop(workload, 0.0, 0, min_ops=1)
    timed_seconds = args.seconds / 2 if args.trace else args.seconds
    timed, recs, errs = run_loop(workload, timed_seconds, 1)
    records += recs
    errors += errs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [seconds for _, seconds in timed]

    per_layer = {}
    sweep, sweep_errors = None, []
    traced = []
    if args.trace:
        import spans

        with spans.Tracer() as tracer:
            traced, recs, errs = run_loop(workload, args.seconds / 2, 1 + len(timed))
        records += recs
        errors += errs
        per_layer = tracer.summary(max(len(traced), 1))
        per_layer["trace.overhead_s"] = (
            best_op(traced) - best_op(timed) if timed and traced else None
        )
        sweep, sweep_errors = scaling_sweep(args.seed)
        for key in (
            "intervals.level_lengths.scaling_exponent",
            "agreement.gamma_exact.scaling_exponent",
            "intervals.level_lengths.max_n_in_budget",
        ):
            per_layer[key] = sweep[key]

    setup_times += measure_setup()
    failures, extras = workload.check(records)
    failed = sum(1 for bad in failures if bad) + len(errors) + len(sweep_errors)
    attempted = len(records) + len(errors)
    if sweep:
        attempted += sum(len(rows) for rows in sweep["cases"].values())

    # end-to-end metrics: the bounded ones the result line carries
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_best_s": (best_op(timed), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    t = tail(times)
    printed = {
        "op_p50_s": (statistics.median(times) if times else None, "s", ""),
        "throughput_per_s": (
            workload.units_per_op * len(times) / sum(times) if times else None,
            f"{workload.unit}/s",
            "",
        ),
        "op_tail_s": (t["value"], "s", f"p{t['percentile']} of {t['ops']} ops"),
        "failed_frac": (failed / attempted if attempted else None, "1", f"{failed} of {attempted}"),
    }
    if "gamma_abs_err" in extras:
        printed["gamma_abs_err"] = (extras["gamma_abs_err"], "1", "max over analytic shapes")

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 caller, 1 process, 1 thread",
        "env": env,
        "setup_s_samples": setup_times,
        "warmup_s": [seconds for _, seconds in warm],
        "ops_timed": len(times),
        "unit_per_op": f"{workload.units_per_op} {workload.unit}",
        "metrics": {k: v for k, (v, _) in metrics.items()},
        **{k: v for k, (v, _, _) in printed.items()},
        "op_tail": t,
        "checks_run": {name: len(records) for name in workload.check_names},
        "failures": [b for bad in failures for b in bad][:20] + errors[:5] + sweep_errors,
    }
    if args.trace:
        detail["traced_ops"] = len(traced)
        detail["traced_op_best_s"] = best_op(traced)
        detail["missing_functions"] = tracer.missing
        detail["sweep"] = sweep

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}", end="")
    print(f"  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!s:>24} {unit}")
    for name, (value, unit, note) in printed.items():
        print(f"  {name:<44} {value!s:>24} {unit} {note}")
    for name, value in per_layer.items():
        print(f"  {name:<44} {value!s:>24} {layer_unit(name)}")
    print("detail " + json.dumps(detail, default=str))

    shown = (
        {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer.items()}
        if args.trace
        else {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    )
    result = {
        "correct": failed == 0 and bool(times),
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
