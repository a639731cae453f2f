"""Command line interface.

Subcommands: two-sample, manova, regression, simulate, grid-dump.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

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

_USAGE_ERRORS = (InvalidSpecError, InvalidScoreError)
_DATA_ERRORS = (DataError, InvalidInputError)
_NUMERICAL_ERRORS = (
    NumericalError,
    SimulationError,
    DegenerateDesignError,
    DegenerateInputError,
    np.linalg.LinAlgError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def load_csv(path, columns=None):
    """Load numeric columns of a headered CSV as an (n, d) float array."""
    header, rows = _read_table(path)
    return _numeric_matrix(path, header, rows, columns)


def _read_table(path):
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except OSError as err:
        raise DataError(f"{path}: {err}") from err
    if not rows:
        raise DataError(f"{path}: file is empty")
    header, body = rows[0], rows[1:]
    if len(body) < MIN_ROWS:
        raise DataError(
            f"{path}: need at least {MIN_ROWS} data rows, found {len(body)}"
        )
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i} has {len(row)} fields, header has {len(header)}"
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


def _numeric_matrix(path, header, rows, columns):
    idx = _column_indices(path, header, columns)
    out = np.empty((len(rows), len(idx)))
    for i, row in enumerate(rows, start=2):
        for j, col in enumerate(idx):
            cell = row[col].strip()
            if not cell:
                raise DataError(
                    f"{path}: missing value at row {i}, column {header[col]!r}"
                )
            try:
                out[i - 2, j] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric value {cell!r} at row {i}, "
                    f"column {header[col]!r}"
                ) from None
            if not np.isfinite(out[i - 2, j]):
                raise DataError(
                    f"{path}: non-finite value {cell!r} at row {i}, "
                    f"column {header[col]!r}"
                )
    return out


def _load_beta0(path, m, d):
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as err:
        raise DataError(f"{path}: {err}") from err
    if rows:
        try:
            [float(v) for v in rows[0]]
        except ValueError:
            rows = rows[1:]  # tolerate a header row
    try:
        beta = np.array([[float(v) for v in row] for row in rows])
    except ValueError as err:
        raise DataError(f"{path}: non-numeric coefficient: {err}") from err
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


def _cmd_two_sample(args):
    cols = _csv_list(args.response_cols) if args.response_cols else None
    x = load_csv(args.input[0], cols)
    y = load_csv(args.input[1], cols)
    if x.shape[1] != y.shape[1]:
        raise DataError(
            f"input files differ in dimension: {x.shape[1]} vs {y.shape[1]}"
        )
    grid = _grid(args, x.shape[0] + y.shape[0], x.shape[1])
    call = METHODS["two_sample"][args.method]
    return _emit(args, call([x, y], args.score, args.scatter, grid))


def _split_groups(path, group_col, response_cols):
    header, rows = _read_table(path)
    if group_col not in header:
        raise DataError(f"{path}: no column named {group_col!r} in {header}")
    gcol = header.index(group_col)
    labels = []
    for row in rows:
        label = row[gcol].strip()
        if not label:
            raise DataError(f"{path}: missing group label (column {group_col!r})")
        if label not in labels:
            labels.append(label)
    cols = response_cols or [name for name in header if name != group_col]
    matrix = _numeric_matrix(path, header, rows, cols)
    group_of = np.array([labels.index(row[gcol].strip()) for row in rows])
    groups = [matrix[group_of == k] for k in range(len(labels))]
    for label, g in zip(labels, groups):
        if g.shape[0] < 2:
            raise DataError(f"{path}: group {label!r} has fewer than 2 rows")
    return groups, labels


def _cmd_manova(args):
    cols = _csv_list(args.response_cols) if args.response_cols else None
    groups, _ = _split_groups(args.input, args.group_col, cols)
    grid = _grid(args, sum(g.shape[0] for g in groups), groups[0].shape[1])
    call = METHODS["manova"][args.method]
    return _emit(args, call(groups, args.score, args.scatter, grid))


def _cmd_regression(args):
    header, rows = _read_table(args.input)
    y_cols = _csv_list(args.response_cols)
    c_cols = _csv_list(args.covariate_cols)
    y = _numeric_matrix(args.input, header, rows, y_cols)
    c = _numeric_matrix(args.input, header, rows, c_cols)
    beta0 = None
    if args.beta0:
        beta0 = _load_beta0(args.beta0, c.shape[1], y.shape[1])
    result = rank_tests.regression_test(
        y, c, beta0, args.score, grid=_grid(args, *y.shape)
    )
    return _emit(args, result)


def _cmd_simulate(args):
    config = SimConfig.from_json(args.config)
    curve = run_power_study(config)
    if args.out:
        curve.to_csv(args.out)
    else:
        curve.to_csv(sys.stdout)
    return 0


def _cmd_grid_dump(args):
    grid = _grid(args, args.n, args.d)
    _note_odd_ns(args, grid.spec)
    if args.out:
        grid_to_csv(grid, args.out)
    else:
        grid_to_csv(grid, sys.stdout)
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


def build_parser():
    parser = _Parser(
        prog="corank",
        description="Distribution-free center-outward rank tests.",
    )
    sub = parser.add_subparsers(dest="command")

    two = sub.add_parser("two-sample", help="two-sample location test")
    two.add_argument("--input", nargs=2, required=True, metavar=("A.csv", "B.csv"))
    two.add_argument("--response-cols", default=None, help="comma-separated columns")
    two.add_argument(
        "--method", default="co",
        choices=tuple(METHODS["two_sample"]),
    )
    two.add_argument("--scatter", default="sample", choices=tuple(SCATTERS))
    _add_score_option(two)
    _add_grid_options(two)
    _add_output_options(two)
    two.set_defaults(func=_cmd_two_sample)

    man = sub.add_parser("manova", help="K-group location test")
    man.add_argument("--input", required=True, metavar="DATA.csv")
    man.add_argument("--group-col", required=True, help="grouping column name")
    man.add_argument("--response-cols", default=None, help="comma-separated columns")
    man.add_argument(
        "--method", default="co",
        choices=tuple(METHODS["manova"]),
    )
    man.add_argument("--scatter", default="sample", choices=tuple(SCATTERS))
    _add_score_option(man)
    _add_grid_options(man)
    _add_output_options(man)
    man.set_defaults(func=_cmd_manova)

    reg = sub.add_parser("regression", help="test a coefficient matrix")
    reg.add_argument("--input", required=True, metavar="DATA.csv")
    reg.add_argument("--response-cols", required=True, help="comma-separated columns")
    reg.add_argument("--covariate-cols", required=True, help="comma-separated columns")
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
    except _USAGE_ERRORS as err:
        print(f"corank: error: {err}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as err:
        print(f"corank: data error: {err}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as err:
        print(f"corank: numerical error: {err}", file=sys.stderr)
        return 3
    except CorankError as err:  # anything else package-specific
        print(f"corank: error: {err}", file=sys.stderr)
        return 3


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
