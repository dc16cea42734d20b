"""Command-line front end: gamma, build, attrs, series, and report workflows.

Interval lists (one `l,r` pair per line, `#` comments) and CSV surveys are read
a block at a time by the survey module: a list's block by numpy's C line reader,
a survey's by a block split; JSON per that module. All output is deterministic:
identical inputs and flags produce identical bytes.

``gamma`` prints γ, then one line per agreement level; every value is
``"%.6f"``'s text to the byte. The level lines are built TEXT_LINES at a time
and each block is written when done, so the print holds O(TEXT_LINES) memory:
from integer digits, or, for a block holding a value whose digits the integer
path cannot decide (``_millionths`` gives the rule), whole by one ``%``.
``build`` and ``series`` evaluate and write their series the same way,
TEXT_LINES points per block (``survey.grid_series``, ``survey.series_text``),
so no array covers the whole grid.

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

import numpy as np

from . import survey as survey_mod
from .agreement import DEFAULT_CUTS, GammaBreakdown
from .errors import AgreementError
from .fuzzyset import DEFAULT_SAMPLES, attributes
from .iaa import build_iaa
from .intervals import Interval, plain
from .survey import TEXT_LINES, parse_interval_lines

# upper bounds on the size flags, so a typo cannot ask for an unbounded allocation
MAX_SAMPLES = 10_000_001
MAX_ALPHA_CUTS = 10_000


def _source(path: str):
    # stdin is read as bytes, as a file is; a stand-in without a byte buffer as text
    return getattr(sys.stdin, "buffer", sys.stdin) if path == "-" else path


_LEVEL_LINE = "level %d: weight=%.6f length=%.6f prev=%.6f ratio=%.6f\n"


def _digits(x: np.ndarray, width: int) -> np.ndarray:
    """ASCII decimal digits of uint32 ``x``, ``width`` rows by x.size, most
    significant first; a zero left of a value's highest non-zero digit (bar
    the last row's) is a 0 byte, for ``bytes.replace`` to delete."""
    rows = np.empty((width, x.size), np.uint8)
    rest = x
    for r in range(width - 1, -1, -1):
        q = rest // 10  # uint32 floor division by a constant is far cheaper than % or divmod
        np.subtract(rest, q * 10, out=rows[r], casting="unsafe")
        rest = q
    rows += 48
    least = int(x.min())
    for r in range(width - 1):
        if least < 10 ** (width - 1 - r):
            rows[r] *= x >= 10 ** (width - 1 - r)
    return rows


def _millionths(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """k = rint(v * 1e6), and where it is ``"%.6f" % v``'s correctly rounded count
    of millionths; k is 0 elsewhere.

    It is that count wherever v * 1e6 lies farther than its spacing from a
    half-integer: its rounding error cannot cross the half then. A value near a
    half, one of 2**51 millionths or more, -0.0, a negative, NaN or inf is left
    to ``%``."""
    with np.errstate(invalid="ignore", over="ignore"):
        f = v * 1e6
        k = np.rint(f)
        ok = np.abs(f - k) < 0.5 - f * 2.0**-52  # f * 2**-52 >= spacing(f); NaN compares False
    ok &= ~np.signbit(v)
    return np.where(ok, k, 0.0), ok


def _fixed(k: np.ndarray) -> np.ndarray:
    """``"%.6f"`` of k millionths (0 <= k < 2**51) as rows of ``_digits``."""
    whole = np.floor(k / 1e6)  # k < 2**51, so the parts are exact
    head = whole.astype(np.uint32)
    # the six fraction digits behind a 1, which becomes the point
    tail = _digits((k - whole * 1e6 + 1e6).astype(np.uint32), 7)
    tail[0] = ord(".")
    return np.concatenate([_digits(head, len(str(int(head.max())))), tail])


def _digit_lines(level: np.ndarray, *values: np.ndarray) -> str:
    """``_LEVEL_LINE`` of each ascending ``level`` from ``_fixed`` rows of its
    weight, length, prev and ratio."""
    pieces = list(zip(("level ", ": weight=", " length=", " prev=", " ratio="),
                      (_digits(level, len(str(int(level[-1])))), *values)))
    line = np.empty((level.size, sum(len(t) + len(d) for t, d in pieces) + 1), np.uint8)
    col = 0
    for text, digits in pieces:
        end = col + len(text)
        line[:, col:end] = np.frombuffer(text.encode(), np.uint8)
        col = end + len(digits)
        line[:, end:col] = digits.T
    line[:, col] = ord("\n")
    return line.tobytes().replace(b"\0", b"").decode("ascii")


def _level_lines(first: int, weights, lengths, ratios) -> str:
    """``_LEVEL_LINE`` of levels first + 2 on: each weight, length
    (``lengths[1:]``), prev (``lengths[:-1]``) and ratio. A block all of whose
    values ``_millionths`` decides takes ``_digit_lines``; any other is one ``%``."""
    level = np.arange(first + 2, first + 2 + weights.size, dtype=np.uint32)
    (kw, w_ok), (kl, ln_ok), (kr, r_ok) = map(_millionths, (weights, lengths, ratios))
    if w_ok.all() and ln_ok.all() and r_ok.all():
        ln = _fixed(kl)  # each length's digits serve its own line and the next one's prev
        return _digit_lines(level, _fixed(kw), ln[:, 1:], ln[:, :-1], _fixed(kr))
    values = np.column_stack([level, weights, lengths[1:], lengths[:-1], ratios])
    return _LEVEL_LINE * level.size % tuple(values.ravel().tolist())


def _print_breakdown(breakdown: GammaBreakdown, out):
    """γ as ``%.6f``, then one ``_LEVEL_LINE`` per agreement level, each value's
    text ``"%.6f"``'s to the byte: from integer digits, or by one ``%`` for a
    block holding a value ``_millionths`` cannot decide. The lines are built
    TEXT_LINES at a time (``_level_lines``) and each block is written as it is
    done, so memory stays O(TEXT_LINES) at any level count."""
    out.write("%.6f\n" % breakdown.gamma)
    weights, lengths, ratios = breakdown.weights, breakdown.lengths, breakdown.ratios
    for a in range(0, weights.size, TEXT_LINES):
        b = a + TEXT_LINES
        out.write(_level_lines(a, weights[a:b], lengths[a : b + 1], ratios[a:b]))


def cmd_gamma(args) -> None:
    coll = parse_interval_lines(survey_mod.read_text(_source(args.input)))
    _print_breakdown(survey_mod.cell_gamma(coll, args.mode, args.alpha_cuts), sys.stdout)


def cmd_build(args) -> None:
    coll = parse_interval_lines(survey_mod.read_text(_source(args.input)))
    fs = build_iaa(coll)
    window = Interval(*args.scale) if args.scale else fs.window()
    blocks = survey_mod.grid_series(fs, window.l, window.r, args.samples)
    sys.stdout.writelines(survey_mod.series_text(blocks, args.format))


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
    fs = build_iaa(survey_mod.group_collection(ds, args.group, args.term))
    blocks = survey_mod.grid_series(fs, ds.scale.l, ds.scale.r, args.samples)
    sys.stdout.writelines(survey_mod.series_text(blocks, args.format))


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
