"""Memory that grows no faster than the input: the ``tracemalloc`` peak of a
pipeline at 8s rows is at most 8 times its peak at s rows, with a 25% and
1 MB allowance. Inputs come from a fixed seed, and a ``tracemalloc`` peak is
the same from run to run on one input, so the bound does not depend on the
host's speed."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from intervalagreement import gamma_exact
from intervalagreement.survey import TERM_ORDER, load_survey, parse_interval_lines, report

SEED = 20_201_115
MB = 2**20


def traced_peak(run, text: str) -> int:
    """The ``tracemalloc`` peak of ``run(text)``, in bytes; the text is not counted."""
    tracemalloc.start()
    try:
        run(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _endpoints(rng, size) -> tuple[np.ndarray, np.ndarray]:
    lo = rng.uniform(0.0, 9.0, size)
    return lo, np.minimum(lo + rng.uniform(0.05, 3.0, size), 10.0)


def interval_list(rows: int, decorated: bool) -> str:
    """``rows`` lines ``l,r``; decorated, a comment line every 500 lines, a
    whitespace-only one every 1,500 and an inline comment every 700."""
    ls, rs = _endpoints(np.random.default_rng([SEED, rows]), rows)
    lines = []
    for i, (l, r) in enumerate(zip(ls.tolist(), rs.tolist())):
        if decorated:
            lines += ["# a comment"] * (i % 500 == 1) + [" \t "] * (i % 1500 == 2)
        lines.append(f"{l:.4f},{r:.4f}" + " # inline" * (decorated and i % 700 == 3))
    return "\n".join(lines) + "\n"


def csv_survey(rows: int) -> str:
    """A quote-free CSV survey of ``rows`` rows: 4 groups x 5 terms, ``rows // 20``
    participants in each cell."""
    participants = rows // 20
    ls, rs = _endpoints(np.random.default_rng([SEED, rows]), (4, 5, participants))
    return "group,participant_id,term,l,r\n" + "".join(
        f"G{g + 1},P{p + 1:06d},{term},{ls[g, t, p]:.2f},{rs[g, t, p]:.2f}\n"
        for g in range(4) for t, term in enumerate(TERM_ORDER) for p in range(participants))


def quoted_survey(rows: int) -> str:
    """``csv_survey`` with every name in double quotes, so ``csv.reader`` reads it."""
    header, *lines = csv_survey(rows).splitlines()
    return header + "\n" + "".join(
        '"{}","{}","{}",{},{}\n'.format(*line.split(",")) for line in lines)


def json_survey(rows: int) -> str:
    """``csv_survey``'s rows as JSON records."""
    fields = (line.split(",") for line in csv_survey(rows).splitlines()[1:])
    return json.dumps([{"group": g, "participant_id": p, "term": t, "l": float(l), "r": float(r)}
                       for g, p, t, l, r in fields])


FAMILIES = {
    "plain list": (lambda rows: interval_list(rows, False),
                   lambda text: gamma_exact(parse_interval_lines(text)), 5_000),
    "decorated list": (lambda rows: interval_list(rows, True),
                       lambda text: gamma_exact(parse_interval_lines(text)), 5_000),
    "csv survey": (csv_survey, lambda text: report(load_survey(io.StringIO(text))), 2_000),
    "quoted csv survey": (quoted_survey,
                          lambda text: report(load_survey(io.StringIO(text))), 2_000),
    "json survey": (json_survey,
                    lambda text: report(load_survey(io.StringIO(text), format="json")), 2_000),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_traced_peak_grows_no_faster_than_the_rows(family):
    make, run, s = FAMILIES[family]
    small, large = traced_peak(run, make(s)), traced_peak(run, make(8 * s))
    assert large <= 8 * small * 1.25 + MB, (
        f"{family}: {small / MB:.2f} MB at {s} rows, {large / MB:.2f} MB at {8 * s}")
