"""Command-line front end: gamma, build, attrs, series, and report workflows.

Interval lists are one `l,r` pair per line with `#` comments; survey data is
CSV or JSON per the survey module. All output is deterministic: identical
inputs and flags produce identical bytes.

Each subcommand takes only the flags it reads, and argparse rejects a bad
value with exit 2. ``--scale`` defaults to the set's hull in ``build`` and to
``survey.DEFAULT_SCALE`` elsewhere.

    gamma   --input --mode --alpha-cuts
    build   --input --samples --scale --format
    attrs   --input --samples
    report  --input --mode --alpha-cuts --samples --scale --format --input-format
    series  --input --samples --scale --format --input-format --group --term
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import compress, repeat
from operator import contains

import numpy as np

from . import survey as survey_mod
from .agreement import DEFAULT_CUTS, GammaBreakdown
from .errors import AgreementError, ParseError
from .fuzzyset import DEFAULT_SAMPLES, attributes
from .iaa import build_iaa
from .intervals import Interval, IntervalCollection, endpoint_arrays, plain, read_interval

# upper bounds on the size flags, so a typo cannot ask for an unbounded allocation
MAX_SAMPLES = 10_000_001
MAX_ALPHA_CUTS = 10_000


def parse_interval_lines(text: str) -> IntervalCollection:
    """One interval per line as `l,r`; blank lines and `#` comments ignored.

    The lines are joined, split once and checked a column at a time. Only the
    lines that fail (as one without exactly one comma does), or whose text is
    not plain, are read on their own, in line order: the first bad one raises.
    """
    raw = text.splitlines()
    lines = [line.split("#", 1)[0] for line in raw] if "#" in text else raw
    kept = list(filter(str.strip, lines))
    if not kept:
        raise ParseError("no intervals in input")
    joined = ",".join(kept)
    fields = joined.split(",")
    if len(fields) != 2 * len(kept) or not all(map(contains, kept, repeat(","))):
        fields = ",".join(line if line.count(",") == 1 else "," for line in kept).split(",")
    ls, rs, ok = endpoint_arrays(fields[0::2], fields[1::2])
    if not plain(joined):  # comments may hold any text
        ok &= np.fromiter(map(plain, kept), bool)
    if not ok.all():
        number = np.flatnonzero(~ok)
        if len(kept) < len(lines):  # kept line k is the k-th line that is not blank
            number = np.array(list(compress(range(len(lines)), map(str.strip, lines))))[number]
        for i in number.tolist():
            parts = [part.strip() for part in lines[i].split(",")]
            if len(parts) != 2:
                raise ParseError(f"expected 'l,r', got {raw[i]!r}", line=i + 1)
            read_interval(*parts, i + 1, raw[i])
    return IntervalCollection._from_arrays(ls, rs)


def _source(path: str):
    # stdin is read as bytes, as a file is; a stand-in without a byte buffer as text
    return getattr(sys.stdin, "buffer", sys.stdin) if path == "-" else path


def _print_breakdown(breakdown: GammaBreakdown, out):
    # bare value first for easy piping, then one line per agreement level,
    # filled a column at a time
    weights = breakdown.weights.tolist()
    # past the last non-zero length (the first one never is), length, prev and
    # ratio all read 0 (no length is -0.0: run_sums adds from +0.0), so only
    # the weight is formatted
    head = min(int(np.flatnonzero(breakdown.lengths)[-1]) + 1, len(weights))
    # each length is formatted once, for its own line and for the next one's prev
    shown = list(map("%.6f".__mod__, breakdown.lengths[: head + 1].tolist()))
    cols = [None] * (5 * head)
    cols[0::5] = range(2, head + 2)
    cols[1::5] = weights[:head]
    cols[2::5] = shown[1:]
    cols[3::5] = shown[:-1]
    cols[4::5] = breakdown.ratios[:head].tolist()
    zeros = [None] * (2 * (len(weights) - head))
    zeros[0::2] = range(head + 2, len(weights) + 2)
    zeros[1::2] = weights[head:]
    out.write(
        "%.6f\n" % breakdown.gamma
        + "level %d: weight=%.6f length=%s prev=%s ratio=%.6f\n" * head % tuple(cols)
        + "level %d: weight=%.6f length=0.000000 prev=0.000000 ratio=0.000000\n"
        * (len(zeros) // 2) % tuple(zeros)
    )


def cmd_gamma(args) -> None:
    coll = parse_interval_lines(survey_mod.read_text(_source(args.input)))
    _print_breakdown(survey_mod.cell_gamma(coll, args.mode, args.alpha_cuts), sys.stdout)


def cmd_build(args) -> None:
    coll = parse_interval_lines(survey_mod.read_text(_source(args.input)))
    fs = build_iaa(coll)
    window = Interval(*args.scale) if args.scale else fs.window()
    xs = np.linspace(window.l, window.r, args.samples)
    to_text = survey_mod.series_to_json if args.format == "json" else survey_mod.series_to_csv
    sys.stdout.write(to_text(xs, fs.membership(xs)))


def cmd_attrs(args) -> None:
    coll = parse_interval_lines(survey_mod.read_text(_source(args.input)))
    fs = build_iaa(coll)
    attrs = attributes(fs, samples=args.samples)
    print(f"height = {attrs.height:.6g}")
    print(f"centroid = {attrs.centroid:.6g}")
    print(f"support = {attrs.support_length:.6g}")
    print(f"core = {attrs.core_length:.6g}")
    print(f"n = {coll.n}")


def _load_dataset(args) -> survey_mod.SurveyDataset:
    scale = Interval(*args.scale) if args.scale else survey_mod.DEFAULT_SCALE
    return survey_mod.load_survey(_source(args.input), format=args.input_format, scale=scale)


def cmd_report(args) -> None:
    ds = _load_dataset(args)
    rep = survey_mod.report(
        ds, mode=args.mode, alpha_cuts=args.alpha_cuts, samples=args.samples
    )
    to_text = survey_mod.report_to_json if args.format == "json" else survey_mod.report_to_csv
    sys.stdout.write(to_text(rep))
    for group, term, reason in rep.skipped:
        print(f"skipped {group}/{term}: {reason}", file=sys.stderr)


def cmd_series(args) -> None:
    ds = _load_dataset(args)
    xs, mus = survey_mod.emit_series(ds, args.group, args.term, samples=args.samples)
    to_text = survey_mod.series_to_json if args.format == "json" else survey_mod.series_to_csv
    sys.stdout.write(to_text(xs, mus))


def _number_type(read, low, high):
    """argparse type: plain text that ``read`` turns into a number in [low, high]."""

    def number(text: str):
        if not plain(text):
            raise ValueError(text)
        x = read(text)
        if not low <= x <= high:
            raise argparse.ArgumentTypeError(f"must be from {low} to {high}, got {text}")
        return x

    return number


# every flag a subcommand can take, with its add_argument keywords
_FLAGS = {
    "--input": dict(default="-", metavar="PATH|-", help="input file or - for stdin"),
    "--mode": dict(choices=["exact", "alpha"], default="exact"),
    "--alpha-cuts": dict(type=_number_type(int, 2, MAX_ALPHA_CUTS), default=DEFAULT_CUTS,
                         metavar="K"),
    "--samples": dict(type=_number_type(int, 2, MAX_SAMPLES), default=DEFAULT_SAMPLES, metavar="S"),
    "--scale": dict(type=_number_type(float, -math.inf, math.inf), nargs=2, metavar=("LO", "HI")),
    "--format": dict(choices=["csv", "json"], default="csv"),
    "--input-format": dict(choices=["csv", "json"], default="csv"),
    "--group": dict(required=True),
    "--term": dict(required=True),
}

# each subcommand's handler, help line and the only flags it takes
_COMMANDS = {
    "gamma": (cmd_gamma, "agreement ratio of an interval list", "--input --mode --alpha-cuts"),
    "build": (cmd_build, "sampled membership series of an interval list",
              "--input --samples --scale --format"),
    "attrs": (cmd_attrs, "fuzzy-set attributes of an interval list", "--input --samples"),
    "report": (cmd_report, "per-group agreement table from survey data",
               "--input --mode --alpha-cuts --samples --scale --format --input-format"),
    "series": (cmd_series, "membership series of one survey cell",
               "--input --samples --scale --format --input-format --group --term"),
}


# argparse 3.11 reads only -<digits> and -<digits>.<digits> as negative numbers,
# so a value such as -1e3 or -inf would be taken for an option string
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``iaa`` argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="iaa",
        description="Agreement modelling of interval-valued responses via fuzzy sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    scale = getattr(args, "scale", None)
    if scale is not None and not (scale[0] < scale[1] and math.isfinite(scale[1] - scale[0])):
        parser.error("--scale needs finite LO < HI")
    try:
        args.func(args)
    except (AgreementError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
