"""Command line interface.

Subcommands: two-sample, manova, regression, simulate, grid-dump.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
A file that cannot be opened, decoded or written (--input, --beta0,
--config or --out) is a data error.  Header names are matched with
surrounding spaces ignored, and a row number in a message is the file's
line number.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from . import rank_tests
from .baselines import SCATTERS
from .errors import (
    CorankError,
    DataError,
    DegenerateDesignError,
    DegenerateInputError,
    InvalidInputError,
    InvalidScoreError,
    InvalidSpecError,
    NumericalError,
    SimulationError,
)
from .scores import SCORES
from .simulation import METHODS, SimConfig, run_power_study
from .sphere_grid import build_grid, grid_to_csv, make_spec, symmetrizes

MIN_ROWS = 4
DEFAULT_SEED = 0

# (error classes, exit code, message prefix); the first match wins
_EXITS = (
    ((InvalidSpecError, InvalidScoreError), 1, "error"),
    ((DataError, InvalidInputError), 2, "data error"),
    (OSError, 2, "data error"),  # a file that cannot be opened or written
    ((NumericalError, SimulationError, DegenerateDesignError, DegenerateInputError,
      np.linalg.LinAlgError), 3, "numerical error"),
    (CorankError, 3, "error"),  # anything else package-specific
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _read_rows(path):
    """The file's non-blank CSV rows, each as (file line number, cells)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            return [(reader.line_num, row) for row in reader
                    if any(cell.strip() for cell in row)]
        except UnicodeDecodeError as err:
            raise DataError(f"{path}: {err}") from None


def _load_table(path, columns):
    header, rows = _read_table(path)
    return header, _numeric_matrix(path, header, rows, columns)


def _read_table(path):
    rows = _read_rows(path)
    if not rows:
        raise DataError(f"{path}: file is empty")
    header, body = [name.strip() for name in rows[0][1]], rows[1:]
    if len(body) < MIN_ROWS:
        raise DataError(
            f"{path}: need at least {MIN_ROWS} data rows, found {len(body)}"
        )
    for line, row in body:
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {line} has {len(row)} fields, header has {len(header)}"
            )
    return header, body


def _column_indices(path, header, columns):
    if columns is None:
        return list(range(len(header)))
    idx = []
    for name in columns:
        if name not in header:
            raise DataError(f"{path}: no column named {name!r} in {header}")
        idx.append(header.index(name))
    return idx


def _cell_value(path, cell, where):
    cell = cell.strip()
    if not cell:
        raise DataError(f"{path}: missing value {where}")
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"{path}: non-numeric value {cell!r} {where}") from None
    if not math.isfinite(value):
        raise DataError(f"{path}: non-finite value {cell!r} {where}")
    return value


def _numeric_matrix(path, header, rows, columns):
    idx = _column_indices(path, header, columns)
    out = np.empty((len(rows), len(idx)))
    for i, (line, row) in enumerate(rows):
        for j, col in enumerate(idx):
            out[i, j] = _cell_value(
                path, row[col], f"at row {line}, column {header[col]!r}"
            )
    return out


def _load_beta0(path, m, d):
    rows = _read_rows(path)
    if rows:
        try:
            [float(v) for v in rows[0][1]]
        except ValueError:
            rows = rows[1:]  # tolerate a header row
    width = len(rows[0][1]) if rows else 0
    beta = np.empty((len(rows), width))
    for k, (i, row) in enumerate(rows):
        if len(row) != width:  # the first short or extra cell
            raise DataError(
                f"{path}: {'missing' if len(row) < width else 'extra'} "
                f"coefficient at row {i}, column {min(len(row), width) + 1}"
            )
        for j, cell in enumerate(row):
            beta[k, j] = _cell_value(path, cell, f"at row {i}, column {j + 1}")
    if beta.shape != (m, d):
        raise DataError(
            f"{path}: coefficient matrix must be {m}x{d}, got {beta.shape}"
        )
    return beta


def _csv_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _grid(args, n, d):
    symmetrize = not args.no_symmetrize and symmetrizes(args.nr, args.ns)
    spec = make_spec(n, d, n_r=args.nr, n_s=args.ns, symmetrize=symmetrize)
    return build_grid(spec, tie_break_seed=args.seed)


def _note_odd_ns(args, spec):
    if spec is not None and not spec.symmetrize and not args.no_symmetrize:
        # only an odd explicit n_s turns symmetrization off unasked
        print(
            f"note: n_s={spec.n_s} is odd, disabling direction symmetrization",
            file=sys.stderr,
        )


def _emit(args, result):
    _note_odd_ns(args, result.grid_spec)
    payload = result.to_dict()
    if args.json:
        text = json.dumps(payload, indent=2)
    else:
        lines = [f"method:    {payload['method']}"]
        lines.append(f"statistic: {payload['statistic']:.6g}")
        dof = payload["dof"]
        lines.append(f"dof:       {dof}")
        lines.append(f"p-value:   {payload['p_value']:.6g}")
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _run_group_test(study, args, groups):
    grid = _grid(args, sum(g.shape[0] for g in groups), groups[0].shape[1])
    # the public test's check, then the body a power study runs
    pooled, sizes = rank_tests.validate_groups(groups)
    call = METHODS[study][args.method]
    return _emit(args, rank_tests.one_draw(
        call(pooled[None], sizes, args.score, args.scatter, grid)))


def _column_order(path, first, second):
    """Where each of the first file's columns sits in the second file's, ``path``."""
    if sorted(first) != sorted(second) or len(set(first)) < len(first):
        raise DataError(
            f"input files have different columns: {first} vs {second}; "
            "give both files the same column names, or pick shared ones "
            "with --response-cols"
        )
    return _column_indices(path, second, first)


def _cmd_two_sample(args):
    cols = args.response_cols or None
    (head_x, x), (head_y, y) = (_load_table(path, cols) for path in args.input)
    if x.shape[1] != y.shape[1]:
        raise DataError(
            f"input files differ in dimension: {x.shape[1]} vs {y.shape[1]}"
        )
    if cols is None and head_x != head_y:  # pair the columns by name
        y = y[:, _column_order(args.input[1], head_x, head_y)]
    return _run_group_test("two_sample", args, [x, y])


def _split_groups(path, group_col, response_cols):
    header, rows = _read_table(path)
    [gcol] = _column_indices(path, header, [group_col])
    labels = [row[gcol].strip() for _, row in rows]
    if "" in labels:
        raise DataError(f"{path}: missing group label (column {group_col!r})")
    cols = response_cols or [name for name in header if name != group_col]
    matrix = _numeric_matrix(path, header, rows, cols)
    column = np.array(labels)
    groups = []
    for label in dict.fromkeys(labels):  # in order of first appearance
        groups.append(matrix[column == label])
        if groups[-1].shape[0] < 2:
            raise DataError(f"{path}: group {label!r} has fewer than 2 rows")
    return groups


def _cmd_manova(args):
    groups = _split_groups(args.input, args.group_col, args.response_cols)
    return _run_group_test("manova", args, groups)


def _cmd_regression(args):
    header, rows = _read_table(args.input)
    y = _numeric_matrix(args.input, header, rows, args.response_cols)
    c = _numeric_matrix(args.input, header, rows, args.covariate_cols)
    beta0 = None
    if args.beta0:
        beta0 = _load_beta0(args.beta0, c.shape[1], y.shape[1])
    result = rank_tests.regression_test(
        y, c, beta0, args.score, grid=_grid(args, *y.shape)
    )
    return _emit(args, result)


def _cmd_simulate(args):
    config = SimConfig.from_json(args.config)
    # --out is opened, and truncated, before the study runs, so a path that
    # cannot be written costs no study
    out = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
    with out as fh:
        run_power_study(config).to_csv(fh)
    return 0


def _cmd_grid_dump(args):
    grid = _grid(args, args.n, args.d)
    _note_odd_ns(args, grid.spec)
    grid_to_csv(grid, args.out or sys.stdout)
    return 0


def _add_grid_options(sub):
    sub.add_argument("--nr", type=int, default=None, help="number of grid radii")
    sub.add_argument("--ns", type=int, default=None, help="directions per radius")
    sub.add_argument(
        "--no-symmetrize", action="store_true",
        help="do not force antipodally paired directions",
    )
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="tie-break direction seed (default %(default)s)",
    )


def _add_output_options(sub):
    sub.add_argument("--json", action="store_true", help="full JSON output")
    sub.add_argument("--out", default=None, help="write output to this file")


def _add_score_option(sub):
    sub.add_argument(
        "--score", default="wilcoxon", choices=tuple(SCORES),
        help="rank score (default %(default)s)",
    )


def _add_group_test_options(sub, study, func):
    sub.add_argument("--response-cols", type=_csv_list, help="comma-separated columns")
    sub.add_argument("--method", default="co", choices=tuple(METHODS[study]))
    sub.add_argument("--scatter", default="sample", choices=tuple(SCATTERS))
    _add_score_option(sub)
    _add_grid_options(sub)
    _add_output_options(sub)
    sub.set_defaults(func=func)


def build_parser():
    parser = _Parser(
        prog="corank",
        description="Distribution-free center-outward rank tests.",
    )
    sub = parser.add_subparsers(dest="command")

    two = sub.add_parser("two-sample", help="two-sample location test")
    two.add_argument("--input", nargs=2, required=True, metavar=("A.csv", "B.csv"))
    _add_group_test_options(two, "two_sample", _cmd_two_sample)

    man = sub.add_parser("manova", help="K-group location test")
    man.add_argument("--input", required=True, metavar="DATA.csv")
    man.add_argument("--group-col", required=True, help="grouping column name")
    _add_group_test_options(man, "manova", _cmd_manova)

    reg = sub.add_parser("regression", help="test a coefficient matrix")
    reg.add_argument("--input", required=True, metavar="DATA.csv")
    reg.add_argument(
        "--response-cols", type=_csv_list, required=True, help="comma-separated columns"
    )
    reg.add_argument(
        "--covariate-cols", type=_csv_list, required=True, help="comma-separated columns"
    )
    reg.add_argument("--beta0", default=None, help="CSV with the m x d null coefficients")
    _add_score_option(reg)
    _add_grid_options(reg)
    _add_output_options(reg)
    reg.set_defaults(func=_cmd_regression)

    sim = sub.add_parser("simulate", help="Monte Carlo power study")
    sim.add_argument("--config", required=True, help="JSON study configuration")
    sim.add_argument("--out", default=None, help="write the power curve CSV here")
    sim.set_defaults(func=_cmd_simulate)

    dump = sub.add_parser("grid-dump", help="write a ball grid as CSV")
    dump.add_argument("--n", type=int, required=True, help="number of gridpoints")
    dump.add_argument("--d", type=int, required=True, help="dimension")
    _add_grid_options(dump)
    dump.add_argument("--out", default=None, help="write the grid CSV here")
    dump.set_defaults(func=_cmd_grid_dump)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"corank: error: {err}", file=sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (CorankError, np.linalg.LinAlgError, OSError) as err:
        for classes, code, prefix in _EXITS:
            if isinstance(err, classes):
                print(f"corank: {prefix}: {err}", file=sys.stderr)
                return code


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
