"""The four benchmark workloads: one op each, plus the checks on its outputs.

A workload's ``op`` is the only code inside the timed region. ``record`` keeps
a compact summary of one op's output (run outside the timer), and ``check``
compares every record against the referees in :mod:`reference` once the
timed loop is over, so the referees' memory never counts toward the
program's peak.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

import numpy as np

import inputs
import reference as ref

GAMMA_TOL = 1e-6  # printed gammas carry 6 digits, so at most 5e-7 rounding
EXACT_TOL = 1e-12  # same grid, same thresholds: only summation order differs
ALPHA_SAMPLES = 1_000_001
ALPHA_CUTS = 20


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv: list[str], stdin_text: str) -> tuple[int, str, str]:
    """Call ``iaa`` in-process on stdin text; returns (exit code, stdout, stderr)."""
    from intervalagreement import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class _Cli:
    """Shared record/check logic of the CLI workloads."""

    argv: list[str]
    texts: list[str]
    check_names = ("exit_code_and_stderr", "stdout_sha256_vs_seed", "gamma_vs_oracle")

    def op(self, i: int):
        return run_cli(self.argv, self.texts[i % len(self.texts)])

    def record(self, i: int, result):
        code, out, err = result
        return i % len(self.texts), code, _sha(out), err, self.gammas(out)

    def check(self, records):
        expected = {}
        for k in sorted({r[0] for r in records}):
            text = self.texts[k]
            expected[k] = (_sha(self.seed_output(text)), self.oracle_gammas(text))
        failures = []
        for k, code, sha, err, gammas in records:
            want_sha, want_gammas = expected[k]
            bad = []
            if code != 0 or err:
                bad.append(f"input {k}: exit {code}, stderr {err[:200]!r}")
            if sha != want_sha:
                bad.append(f"input {k}: stdout differs from the seed output")
            if len(gammas) != len(want_gammas):
                bad.append(f"input {k}: {len(gammas)} gammas, expected {len(want_gammas)}")
            else:
                worst = max(abs(g - w) for g, w in zip(gammas, want_gammas))
                if worst > GAMMA_TOL:
                    bad.append(f"input {k}: gamma off the oracle by {worst:.3g}")
            failures.append(bad)
        return failures, {}


class ReportWorkload(_Cli):
    argv = ["report", "--mode", "exact", "--format", "csv"]
    unit = "rows"

    def __init__(self, texts: list[str], rows: int):
        self.texts = texts
        self.inputs = len(texts)
        self.units_per_op = rows

    @staticmethod
    def gammas(out: str) -> list[float]:
        return [float(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]

    seed_output = staticmethod(ref.seed_report_csv)

    @staticmethod
    def oracle_gammas(text: str) -> list[float]:
        cells = ref.survey_cells(ref.parse_survey(text))
        return [ref.oracle_gamma(ls, rs) for _, ls, rs in cells]


class GammaWorkload(_Cli):
    argv = ["gamma", "--mode", "exact"]
    unit = "intervals"

    def __init__(self, text: str, n: int):
        self.texts = [text]
        self.inputs = 1
        self.units_per_op = n

    @staticmethod
    def gammas(out: str) -> list[float]:
        first = out.split("\n", 1)[0]
        return [float(first)] if first else []

    seed_output = staticmethod(ref.seed_gamma_text)

    @staticmethod
    def oracle_gammas(text: str) -> list[float]:
        return [ref.oracle_gamma(*ref.parse_pairs(text))]


class AlphaWorkload:
    """gamma_alpha and attributes on four shapes, plus one jaccard, per op."""

    unit = "grid_points"
    inputs = 1
    check_names = (
        "analytic_cut_lengths_within_2h",
        "analytic_gamma_within_propagated_bound",
        "analytic_attributes",
        "sampled_vs_numpy_runs_1e-12",
        "jaccard_vs_numpy_1e-12",
    )

    def __init__(self, seed: int):
        import intervalagreement as ia

        self.grid = inputs.sampled_grid(seed)
        self.shapes = {
            "gaussian": ia.Gaussian(5.0, 1.0),
            "triangle": ia.triangular(1.0, 4.0, 9.0),
            "trapezoid": ia.trapezoidal(0.0, 2.0, 6.0, 9.0),
            "sampled": ia.Sampled(*self.grid),
        }
        self.units_per_op = (2 * len(self.shapes) + 1) * ALPHA_SAMPLES

    def op(self, i: int):
        import intervalagreement as ia

        out = {}
        for name, shape in self.shapes.items():
            out[name] = (
                ia.gamma_alpha(shape, cuts=ALPHA_CUTS, samples=ALPHA_SAMPLES),
                ia.attributes(shape, samples=ALPHA_SAMPLES),
            )
        out["jaccard"] = ia.jaccard(
            self.shapes["triangle"], self.shapes["trapezoid"], samples=ALPHA_SAMPLES
        )
        return out

    def record(self, i: int, result):
        rec = {"jaccard": result.pop("jaccard")}
        for name, (bd, at) in result.items():
            lengths = [bd.terms[0].prev_length] + [t.length for t in bd.terms]
            rec[name] = (
                bd.gamma,
                np.array(lengths),
                (at.height, at.centroid, at.support_length, at.core_length),
            )
        return rec

    def _expected(self):
        """Per shape: (gamma, cut lengths, attributes, tolerance on lengths, on gamma)."""
        alphas = np.arange(1, ALPHA_CUTS + 1) / ALPHA_CUTS
        exp = {}
        for name, shape in self.shapes.items():
            if name == "sampled":
                continue
            if name == "gaussian":
                # documented window: mean +/- 5 stddev, membership positive across it
                width = 10.0 * shape.stddev
                lengths = np.array([ref.gaussian_cut_length(shape.stddev, a) for a in alphas])
                attrs = (1.0, shape.mean, width, 0.0)
            else:
                width = float(shape.xs[-1] - shape.xs[0])
                lengths = np.array([ref.linear_cut_length(shape.xs, a) for a in alphas])
                core = ref.linear_cut_length(shape.xs, 1.0)
                attrs = (1.0, ref.linear_centroid(shape.xs, shape.mus), width, core)
            h = width / (ALPHA_SAMPLES - 1)
            # the sampled scan can under-read a single-run cut by two grid steps
            dl = 2.0 * h * (1.0 + 1e-6)
            prev = lengths[:-1]
            ratio_err = np.where(
                prev > dl, (dl + lengths[1:] / np.maximum(prev, dl) * dl) / (prev - dl), np.inf
            )
            dgamma = float(np.dot(alphas[1:], ratio_err) / alphas[1:].sum())
            exp[name] = (ref.gamma_from_lengths(lengths, alphas), lengths, attrs, dl, dgamma, h)
        # sampled grid: the same nearest-point grid, scanned by independent numpy
        xs, mus = self.grid
        gx = np.linspace(xs[0], xs[-1], ALPHA_SAMPLES)
        spacing = (xs[-1] - xs[0]) / (xs.size - 1)
        gm = mus[np.rint((gx - xs[0]) / spacing).astype(np.int64)]
        lengths = ref.run_lengths(gx, gm, alphas)
        support, core = ref.run_lengths(gx, gm, np.array([1.0 / ALPHA_SAMPLES, 1.0]))
        attrs = (float(gm.max()), float((gx * gm).sum() / gm.sum()), support, core)
        exp["sampled"] = (ref.gamma_from_lengths(lengths, alphas), lengths, attrs)
        tri, trap = self.shapes["triangle"], self.shapes["trapezoid"]
        jx = np.linspace(min(tri.xs[0], trap.xs[0]), max(tri.xs[-1], trap.xs[-1]), ALPHA_SAMPLES)
        ma, mb = np.interp(jx, tri.xs, tri.mus), np.interp(jx, trap.xs, trap.mus)
        exp["jaccard"] = float(np.minimum(ma, mb).sum() / np.maximum(ma, mb).sum())
        return exp

    def check(self, records):
        exp = self._expected()
        failures = []
        worst_gamma = 0.0

        def close(a, b):
            return abs(a - b) <= EXACT_TOL * max(1.0, abs(b))

        for rec in records:
            bad = []
            for name in ("gaussian", "triangle", "trapezoid"):
                gamma, lengths, attrs = rec[name]
                e_gamma, e_lengths, e_attrs, dl, dgamma, h = exp[name]
                err = abs(gamma - e_gamma)
                worst_gamma = max(worst_gamma, err)
                if np.abs(lengths - e_lengths).max() > dl:
                    bad.append(f"{name}: cut length off its closed form by more than 2h")
                if err > dgamma:
                    bad.append(f"{name}: gamma off its closed form by {err:.3g} > {dgamma:.3g}")
                height, centroid, support, core = attrs
                if not (
                    height == e_attrs[0]
                    and abs(centroid - e_attrs[1]) <= h
                    and close(support, e_attrs[2])
                    and abs(core - e_attrs[3]) <= dl
                ):
                    bad.append(f"{name}: attributes {attrs} vs closed form {e_attrs}")
            gamma, lengths, attrs = rec["sampled"]
            e_gamma, e_lengths, e_attrs = exp["sampled"]
            if not (
                close(gamma, e_gamma)
                and all(map(close, lengths, e_lengths))
                and all(map(close, attrs, e_attrs))
            ):
                bad.append("sampled: differs from the independent numpy run-length sum")
            if not close(rec["jaccard"], exp["jaccard"]):
                bad.append(f"jaccard {rec['jaccard']!r} vs numpy {exp['jaccard']!r}")
            failures.append(bad)
        return failures, {"gamma_abs_err": worst_gamma}


def build(name: str, seed: int):
    """Generate the workload's inputs from the seed; returns (workload, sizes)."""
    if name == "report-paper":
        rows = len(inputs.PAPER_GROUPS) * inputs.PAPER_PARTICIPANTS * len(inputs.TERMS)
        sizes = {
            "surveys": inputs.PAPER_POOL,
            "groups": len(inputs.PAPER_GROUPS),
            "participants_per_group": inputs.PAPER_PARTICIPANTS,
            "terms": len(inputs.TERMS),
            "rows_per_survey": rows,
        }
        return ReportWorkload(inputs.paper_pool(seed), rows), sizes
    if name == "report-panel":
        rows = inputs.PANEL_GROUPS * inputs.PANEL_PARTICIPANTS * len(inputs.TERMS)
        sizes = {
            "groups": inputs.PANEL_GROUPS,
            "participants_per_group": inputs.PANEL_PARTICIPANTS,
            "terms": len(inputs.TERMS),
            "rows": rows,
        }
        return ReportWorkload([inputs.panel_survey(seed)], rows), sizes
    if name == "gamma-large":
        n = inputs.GAMMA_INTERVALS
        text = inputs.interval_lines(inputs.interval_pairs(seed, n))
        return GammaWorkload(text, n), {"intervals": n}
    if name == "alpha-shapes":
        sizes = {
            "shapes": 4,
            "samples": ALPHA_SAMPLES,
            "cuts": ALPHA_CUTS,
            "sampled_grid_points": inputs.SAMPLED_POINTS,
        }
        return AlphaWorkload(seed), sizes
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("report-paper", "report-panel", "gamma-large", "alpha-shapes")
