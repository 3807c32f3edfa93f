"""Command line interface: formula in, peak table out.

Exit codes: 0 success, 2 formula parse error, 3 unknown element or bad
isotope table, 4 invalid parameters or a selection too large to hold in
memory, 5 the ``--output`` file cannot be written. When several are wrong,
the first in that order is reported.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings

import numpy as np

from .formula import FormulaError, parse_formula
from .isotopes import IsotopeTableError, UnknownElementError, load_default, load_table
from .loh import LayerSchedule
from .oracle import enumerate_all
from .pairwise import ArrayPeakStream
from .tree import Selection, TreeNode, build_tree, select_top_k, select_until_cumulative

EXIT_FORMULA = 2
EXIT_TABLE = 3
EXIT_PARAMS = 4
EXIT_OUTPUT = 5

_LOG10E = math.log10(math.e)
_BLOCK = 1 << 14  # output rows formatted and written at a time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoselect",
        description="Select the most abundant isotopologue peaks of a "
        "chemical formula, as exact masses with log probabilities.",
    )
    parser.add_argument(
        "--formula",
        required=True,
        help="chemical formula, e.g. C2H5OH or Cu(NO3)2",
    )
    parser.add_argument("--k", type=int, help="number of peaks to select")
    parser.add_argument(
        "--p",
        type=float,
        help="select the smallest peak set with cumulative probability >= p",
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=1.05,
        help="layer growth rate, >= 1 (default 1.05)",
    )
    parser.add_argument(
        "--isotopes",
        metavar="PATH",
        help="isotope table file (default: embedded NIST table)",
    )
    parser.add_argument(
        "--sorted",
        action="store_true",
        help="order rows by descending probability (ties by ascending mass)",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write to this file instead of stdout"
    )
    parser.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    parser.add_argument(
        "--time", action="store_true", help="print selection wall time to stderr"
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="select from an exhaustive enumeration instead of the merge tree "
        "(small formulas only)",
    )
    parser.add_argument(
        "--log10",
        action="store_true",
        help="report base-10 instead of natural log probabilities",
    )
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)

    try:
        comp = parse_formula(args.formula)
    except FormulaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMULA

    try:
        table = load_table(args.isotopes) if args.isotopes else load_default()
    except (IsotopeTableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TABLE

    if (args.k is None) == (args.p is None):
        print("error: exactly one of --k and --p is required", file=sys.stderr)
        return EXIT_PARAMS

    start = time.perf_counter()
    try:
        if args.oracle:
            root = TreeNode(
                ArrayPeakStream(*enumerate_all(comp, table), LayerSchedule(args.alpha)),
                "oracle",
            )
        else:
            root = build_tree(comp, table, args.alpha)
        if args.k is not None:
            with warnings.catch_warnings():
                # a truncated k is reported below, as one line
                warnings.filterwarnings("ignore", r"only \d+ isotopologue peaks exist")
                selection = select_top_k(root, args.k)
        else:
            selection = select_until_cumulative(root, args.p)
    except UnknownElementError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_TABLE
    except ValueError as exc:
        # bad k, p or alpha, or too many isotopologues for --oracle
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except MemoryError:
        print(
            "error: the selection needs more memory than can be allocated; "
            "request fewer peaks",
            file=sys.stderr,
        )
        return EXIT_PARAMS
    elapsed = time.perf_counter() - start

    if args.k is not None and selection.truncated:
        print(
            f"warning: only {len(selection)} isotopologue peaks exist, "
            f"fewer than the requested {args.k}",
            file=sys.stderr,
        )
    if args.sorted:
        selection = selection.sorted()
    if args.time:
        print(f"selection time: {elapsed:.6f} s", file=sys.stderr)
    return _write(selection, args)


def _write(selection: Selection, args) -> int:
    if not args.output:
        sys.stdout.writelines(_blocks(selection, args))
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(_blocks(selection, args))
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
        return EXIT_OUTPUT
    return 0


def _blocks(selection: Selection, args):
    """The output table as text: the header, then ``_BLOCK`` rows at a time,
    each block formatted by one ``str.format`` call."""
    sep = "\t" if args.format == "tsv" else ","
    yield sep.join(("mass", "log_prob", "prob")) + "\n"
    prob = np.exp(selection.logp)
    logcol = selection.logp * _LOG10E if args.log10 else selection.logp
    line = sep.join(["{:.17g}"] * 3) + "\n"
    for start in range(0, prob.size, _BLOCK):
        end = start + _BLOCK
        block = np.column_stack((selection.mass[start:end], logcol[start:end], prob[start:end]))
        yield (line * len(block)).format(*block.ravel().tolist())


def main(argv=None):
    sys.exit(run(argv))
