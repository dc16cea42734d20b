"""In-memory span tracing around the package's public functions.

The tracer replaces each traced function with a wrapper at every place the
package looks it up: a module attribute, or a name bound by ``from ... import``
in another module. It patches nothing on disk and restores every binding on
exit. Each call becomes a span (name, start, end, parent); a span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "intervalagreement"


def _len_terms(args, ret):
    return {"agreement.gamma_terms": len(ret.terms)}


def _coverage_counts(args, ret):
    return {"intervals.intervals_swept": args[0].n, "intervals.coverage_cells_out": len(ret[1])}


# traced functions, with the counts read from each call's arguments and result
TARGETS = {
    "cli.main": None,
    "cli.parse_interval_lines": None,
    "survey.load_survey": lambda args, ret: {"survey.rows_loaded": len(ret.records)},
    "survey.group_collection": None,
    "survey.report": lambda args, ret: {
        "survey.cells_reported": len(ret.rows),
        "survey.cells_skipped": len(ret.skipped),
    },
    "survey.report_to_csv": None,
    "intervals.coverage_cells": _coverage_counts,
    "intervals.level_lengths": None,
    "iaa.build_iaa": None,
    "agreement.gamma_exact": _len_terms,
    "agreement.gamma_alpha": _len_terms,
    "agreement.jaccard": None,
    "fuzzyset.attributes": None,
    "fuzzyset.sample_grid": lambda args, ret: {"fuzzyset.grid_points": len(ret[0])},
    "fuzzyset.alpha_length": None,
    "fuzzyset.alpha_lengths": None,
    "_kernels.alpha_run_length": lambda args, ret: {
        "kernels.points_x_thresholds": len(args[0])
    },
    "_kernels.alpha_run_lengths": lambda args, ret: {
        "kernels.points_x_thresholds": len(args[0]) * len(args[2])
    },
}

COUNTERS = (
    "survey.rows_loaded",
    "survey.cells_reported",
    "survey.cells_skipped",
    "intervals.intervals_swept",
    "intervals.coverage_cells_out",
    "agreement.gamma_terms",
    "fuzzyset.grid_points",
    "kernels.points_x_thresholds",
)


class Tracer:
    """Context manager that records spans and counts while it is active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts.update(count(args, ret))
            return ret

        return traced

    def __enter__(self):
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, count in TARGETS.items():
            module_name, func_name = name.split(".")
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), func_name)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def summary(self, ops: int) -> dict[str, float]:
        """calls, total_s and self_s per traced function, plus counts, all per op.

        Metric names drop the leading underscore of a private module
        (``_kernels`` reports as ``kernels``).
        """
        total = Counter()
        child = Counter()
        calls = Counter()
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                p = self.spans[parent]
                child[p[0]] += end - start
        out = {}
        for name in TARGETS:
            label = name.lstrip("_")
            out[f"{label}.calls"] = calls[name] / ops
            out[f"{label}.total_s"] = total[name] / ops
            out[f"{label}.self_s"] = (total[name] - child[name]) / ops
        for name in COUNTERS:
            out[name] = self.counts[name] / ops
        return out
