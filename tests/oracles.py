"""Independent oracles and file round trips used only by the tests."""

import csv
import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainc

from corank import DataError, Grid, InvalidInputError, ranks_signs
from corank.assignment import solve_assignment
from corank.sphere_grid import GRID_CSV_FIELDS

BRUTE_FORCE_MAX_N = 9


@dataclass(frozen=True)
class Pairing:
    """An observation-to-gridpoint bijection and its total cost.

    ``assignment[i]`` is the index of the gridpoint paired with
    observation ``i``.
    """

    assignment: np.ndarray
    total_cost: float


def solve(cost, potential=None):
    """The library's solver on a copy of ``cost``; the total is of raw entries."""
    cost = np.asarray(cost, dtype=float)
    assignment = solve_assignment(cost.copy(), potential=potential)
    total = cost[np.arange(cost.shape[0]), assignment].sum()
    return Pairing(assignment=assignment, total_cost=float(total))


def brute_force_assignment(cost):
    """Enumerate all n! bijections; oracle for instances with n <= 9.

    Returns the first permutation (in lexicographic order) attaining the
    minimum, so ties resolve deterministically.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InvalidInputError(f"cost matrix must be square, got {cost.shape}")
    n = cost.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise InvalidInputError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return Pairing(assignment=perms[best].copy(), total_cost=float(totals[best]))


def chi_sq_cdf(d, x):
    """Chi-square(d) cdf via the regularized lower incomplete gamma."""
    if d < 1:
        raise InvalidInputError(f"dof must be >= 1, got {d}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidInputError("chi-square argument must be >= 0")
    return gammainc(d / 2.0, x / 2.0)


def hotelling_t2(x, y):
    """Two-sample Hotelling T^2 and its F p-value, in the textbook form.

    The pooled covariance is ``((n1 - 1) S1 + (n2 - 1) S2) / (n - 2)``
    from the two ``np.cov`` estimates; the p-value is SciPy's F(d,
    n - 1 - d) upper tail at ``T^2 (n - 1 - d) / ((n - 2) d)``.
    """
    from scipy.stats import f

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    (n1, d), n2 = x.shape, y.shape[0]
    n = n1 + n2
    s1 = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
    s2 = np.cov(y, rowvar=False, ddof=1).reshape(d, d)
    pooled = ((n1 - 1) * s1 + (n2 - 1) * s2) / (n - 2)
    diff = x.mean(axis=0) - y.mean(axis=0)
    t_sq = n1 * n2 / n * diff @ np.linalg.solve(pooled, diff)
    return float(t_sq), float(f.sf(t_sq * (n - 1 - d) / ((n - 2) * d), d, n - 1 - d))


def rotate_grid(grid, q):
    """Return ``grid`` rotated by an orthogonal matrix ``q``."""
    q = np.asarray(q, dtype=float)
    if q.shape != (grid.d, grid.d):
        raise InvalidInputError(f"expected a {grid.d}x{grid.d} matrix")
    return replace(grid, points=grid.points @ q.T, directions=grid.directions @ q.T)


def group_sum_statistic(rs, sizes, score):
    """Two-sample/MANOVA statistic in its simplified group-sum form.

    ``d / |J|^2 * sum_k |T_k|^2 / n_k`` with ``T_k`` the sum of group
    k's vector scores.  Equal to the dummy-design statistic only when
    the pooled vector scores sum to zero, that is on a symmetrized grid
    with at most one leftover point and a spherical score.
    """
    v = score.vector_scores(rs)
    total = 0.0
    start = 0
    for nk in sizes:
        t = v[start : start + nk].sum(axis=0)
        total += (t @ t) / nk
        start += nk
    return rs.d / score.norm_sq() * total


def grid_from_csv(path):
    """Re-ingest a grid dump. Coordinates round-trip exactly (repr floats)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty grid file")
    header = rows[0]
    d = sum(1 for name in header if name.startswith("x"))
    if d < 1 or header[d:] != list(GRID_CSV_FIELDS):
        raise DataError(f"{path}: unexpected grid header {header!r}")
    body = rows[1:]
    if not body:
        raise DataError(f"{path}: grid file has no points")
    try:
        points = np.array([[float(v) for v in row[:d]] for row in body])
        r_idx = np.array([int(row[d]) for row in body])
        s_idx = np.array([int(row[d + 1]) for row in body])
        tiebreak = np.array([int(row[d + 2]) for row in body], dtype=bool)
    except (ValueError, IndexError) as err:
        raise DataError(f"{path}: malformed grid row: {err}") from err

    n_r = int(r_idx.max())
    n_s = int(s_idx.max())
    directions = np.zeros((n_s, d))
    for s in range(1, n_s + 1):
        sel = (s_idx == s) & (r_idx == 1)
        if sel.any():
            directions[s - 1] = points[sel][0] * (n_r + 1)
        else:  # direction only present on a tie-break point
            sel = (s_idx == s) & tiebreak
            directions[s - 1] = points[sel][0] * (2 * (n_r + 1))
    return Grid(
        points=points,
        radius_index=r_idx,
        direction_index=s_idx,
        is_tiebreak=tiebreak,
        directions=directions,
        spec=None,
    )


def ranks_signs_to_csv(com, path):
    """Dump per-observation ranks, signs, and map values to CSV.

    Columns: obs_index, rank, s1..sd, fx1..fxd.
    """
    rs = ranks_signs(com)
    d = rs.d
    header = (
        ["obs_index", "rank"]
        + [f"s{j + 1}" for j in range(d)]
        + [f"fx{j + 1}" for j in range(d)]
    )
    if hasattr(path, "write"):
        _write_ranks_signs(path, header, rs, com)
        return
    with open(path, "w", newline="") as fh:
        _write_ranks_signs(fh, header, rs, com)


def _write_ranks_signs(fh, header, rs, com):
    writer = csv.writer(fh)
    writer.writerow(header)
    for i in range(rs.n):
        row = [i, repr(float(rs.rank[i]))]
        row += [repr(float(v)) for v in rs.sign[i]]
        row += [repr(float(v)) for v in com.values[i]]
        writer.writerow(row)
