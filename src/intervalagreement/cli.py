"""Command-line front end: gamma, build, attrs, series, and report workflows.

Interval lists are one `l,r` pair per line with `#` comments; survey data is
CSV or JSON per the survey module. All output is deterministic: identical
inputs and flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import sys
from io import StringIO
from operator import itemgetter

import numpy as np

from . import survey as survey_mod
from .agreement import GammaBreakdown, gamma_alpha, gamma_exact
from .errors import AgreementError, InvalidInterval, ParseError
from .fuzzyset import attributes
from .iaa import build_iaa
from .intervals import Interval, IntervalCollection, make_interval, valid_endpoints

# upper bounds on the size flags, so a typo cannot ask for an unbounded allocation
MAX_SAMPLES = 10_000_001
MAX_ALPHA_CUTS = 10_000


def parse_interval_lines(text: str) -> IntervalCollection:
    """One interval per line as `l,r`; blank lines and `#` comments ignored.

    Endpoints are converted with builtin ``float`` and checked a column at a
    time, and the collection is built from the arrays. When any line fails a
    check, the per-line parser runs instead and raises the first error, with
    its line number.
    """
    fields = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            fields.append(line.split(","))
    if not fields:
        raise ParseError("no intervals in input")
    if {*map(len, fields)} == {2}:
        try:
            ls = np.array(list(map(float, map(itemgetter(0), fields))))
            rs = np.array(list(map(float, map(itemgetter(1), fields))))
        except ValueError:  # not a number: the per-line parser reports where
            pass
        else:
            if valid_endpoints(ls, rs).all():
                return IntervalCollection._from_arrays(ls, rs)
    return IntervalCollection(_parse_each_line(text))


def _parse_each_line(text: str) -> list[Interval]:
    """The per-line parser: validates one line at a time, in order."""
    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'l,r', got {raw!r}", line=lineno)
        try:
            l, r = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(f"endpoints must be numbers, got {raw!r}", line=lineno)
        try:
            intervals.append(make_interval(l, r))
        except InvalidInterval as exc:
            raise InvalidInterval(str(exc), line=lineno) from exc
    return intervals


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _print_breakdown(breakdown: GammaBreakdown, out):
    # bare value first for easy piping, then one line per agreement level
    lengths = breakdown.lengths.tolist()
    lines = [f"{breakdown.gamma:.6f}\n"]
    for i, (weight, ratio) in enumerate(
        zip(breakdown.weights.tolist(), breakdown.ratios.tolist()), start=2
    ):
        lines.append(
            f"level {i}: weight={weight:.6f} length={lengths[i - 1]:.6f} "
            f"prev={lengths[i - 2]:.6f} ratio={ratio:.6f}\n"
        )
    out.write("".join(lines))


def cmd_gamma(args) -> int:
    coll = parse_interval_lines(_read_input(args.input))
    if args.mode == "exact":
        breakdown = gamma_exact(coll)
    else:
        breakdown = gamma_alpha(build_iaa(coll), cuts=args.alpha_cuts, samples=args.samples)
    _print_breakdown(breakdown, sys.stdout)
    return 0


def cmd_build(args) -> int:
    coll = parse_interval_lines(_read_input(args.input))
    fs = build_iaa(coll)
    window = Interval(*args.scale) if args.scale else fs.window()
    xs = np.linspace(window.l, window.r, args.samples)
    mus = fs.membership(xs)
    text = (
        survey_mod.series_to_json(xs, mus)
        if args.format == "json"
        else survey_mod.series_to_csv(xs, mus)
    )
    sys.stdout.write(text)
    return 0


def cmd_attrs(args) -> int:
    coll = parse_interval_lines(_read_input(args.input))
    fs = build_iaa(coll)
    attrs = attributes(fs, samples=args.samples)
    print(f"height = {attrs.height:.6g}")
    print(f"centroid = {attrs.centroid:.6g}")
    print(f"support = {attrs.support_length:.6g}")
    print(f"core = {attrs.core_length:.6g}")
    print(f"n = {coll.n}")
    return 0


def _load_dataset(args) -> survey_mod.SurveyDataset:
    scale = Interval(*(args.scale or (0.0, 10.0)))
    text = _read_input(args.input)
    return survey_mod.load_survey(StringIO(text), format=args.input_format, scale=scale)


def cmd_report(args) -> int:
    ds = _load_dataset(args)
    rep = survey_mod.report(
        ds, mode=args.mode, alpha_cuts=args.alpha_cuts, samples=args.samples
    )
    text = (
        survey_mod.report_to_json(rep)
        if args.format == "json"
        else survey_mod.report_to_csv(rep)
    )
    sys.stdout.write(text)
    for group, term, reason in rep.skipped:
        print(f"skipped {group}/{term}: {reason}", file=sys.stderr)
    return 0


def cmd_series(args) -> int:
    ds = _load_dataset(args)
    xs, mus = survey_mod.emit_series(ds, args.group, args.term, samples=args.samples)
    text = (
        survey_mod.series_to_json(xs, mus)
        if args.format == "json"
        else survey_mod.series_to_csv(xs, mus)
    )
    sys.stdout.write(text)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", default="-", metavar="PATH|-", help="input file or - for stdin")
    p.add_argument("--alpha-cuts", type=int, default=10, dest="alpha_cuts", metavar="K")
    p.add_argument("--samples", type=int, default=1001, metavar="S")
    p.add_argument("--scale", type=float, nargs=2, default=None, metavar=("LO", "HI"))
    p.add_argument("--mode", choices=["exact", "alpha"], default="exact")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iaa",
        description="Agreement modelling of interval-valued responses via fuzzy sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="agreement ratio of an interval list")
    _add_common(p)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("build", help="sampled membership series of an interval list")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("attrs", help="fuzzy-set attributes of an interval list")
    _add_common(p)
    p.set_defaults(func=cmd_attrs)

    p = sub.add_parser("report", help="per-group agreement table from survey data")
    _add_common(p)
    p.add_argument("--input-format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("series", help="membership series of one survey cell")
    _add_common(p)
    p.add_argument("--input-format", choices=["csv", "json"], default="csv")
    p.add_argument("--group", required=True)
    p.add_argument("--term", required=True)
    p.set_defaults(func=cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.alpha_cuts < 2:
        parser.error("--alpha-cuts must be >= 2")
    if args.alpha_cuts > MAX_ALPHA_CUTS:
        parser.error(f"--alpha-cuts must be <= {MAX_ALPHA_CUTS}")
    if args.samples < 2:
        parser.error("--samples must be >= 2")
    if args.samples > MAX_SAMPLES:
        parser.error(f"--samples must be <= {MAX_SAMPLES}")
    if args.scale is not None and args.scale[0] >= args.scale[1]:
        parser.error("--scale LO must be below HI")
    try:
        return args.func(args)
    except AgreementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
