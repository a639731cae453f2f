"""Exact minimum-cost assignment of a sample onto a grid.

The empirical center-outward map is the bijection between observations
and gridpoints minimizing the total squared Euclidean distance.  The
solver is SciPy's exact shortest-augmenting-path ``linear_sum_assignment``.

Started from zero potentials, that solver spends nearly all of its time
building up duals that squared-distance costs make easy to guess.  From
``WARM_START_MIN_N`` observations on, the dense solve is therefore
warm-started from a column potential ``v``: it runs on the reduced
matrix ``cost - u - v`` with ``u = min_j (cost - v)``.  Subtracting a
constant from a row or a column shifts the total of every bijection by
the same amount, so the reduced matrix has exactly the optimal
bijections of ``cost``: the potential only saves time.

The potential comes from one of two places.

1. The caller.  ``center_outward.empirical_map`` passes the exact
   column duals of an earlier sample on the same reused ``Grid``,
   recovered once from that sample's optimal pairing by Bellman-Ford
   (``_column_duals``).  It scales every sample to median row norm 1
   before forming the cost, so those duals live in the frame of every
   later cost matrix on the grid.
2. Otherwise, a coarse subproblem, in the spirit of Schmitzer's
   multiscale transport: a seeded random ``n // 4`` by ``n // 4``
   submatrix is solved the same way, recursively, its exact column duals
   are recovered with ``_column_duals``, and they are extended to the
   full problem.  This is the whole warm start of a one-off call, of a
   grid's first solve and of a sample with repeated rows.

Timings on a 2-core x86 machine: the subproblem halves a one-off
two-sample test at n = 1000 (median 436 ms to 214 ms) and cuts the bare
solve 2-3.5x at n = 2000.  At n = 1000 (mix2cauchy, 3 solves, median of
best-of-3) the SciPy finish takes 308 ms cold, 180 ms from the
subproblem and 97 ms from the exact potential of another sample on the
same grid; recovering that potential from zeros took 91 ms.  Below
``WARM_START_MIN_N`` the cold dense solve runs unless the caller passes
a potential.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidInputError

# Below this size the cold dense solve is already cheap.
WARM_START_MIN_N = 250


@dataclass(frozen=True)
class Pairing:
    """An observation-to-gridpoint bijection and its total cost.

    ``assignment[i]`` is the index of the gridpoint paired with
    observation ``i``.
    """

    assignment: np.ndarray
    total_cost: float


def squared_cost(sample, grid):
    """Pairwise squared Euclidean distances, ``entry (i, j) = ||z_i - g_j||^2``.

    Parameters
    ----------
    sample : (n, d) array
    grid : (n, d) array or Grid

    Returns
    -------
    (n, n) ndarray
    """
    pts = getattr(grid, "points", grid)
    sample = np.asarray(sample, dtype=float)
    pts = np.asarray(pts, dtype=float)
    if sample.ndim != 2 or pts.ndim != 2:
        raise InvalidInputError("sample and grid must be 2-d arrays")
    if sample.shape != pts.shape:
        raise InvalidInputError(
            f"sample and grid shapes differ: {sample.shape} vs {pts.shape}"
        )
    if not (np.isfinite(sample).all() and np.isfinite(pts).all()):
        raise InvalidInputError("non-finite coordinates in sample or grid")
    # cdist forms the differences directly, so entries are exact to rounding
    return cdist(sample, pts, metric="sqeuclidean")


def _check_cost(cost):
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InvalidInputError(f"cost matrix must be square, got {cost.shape}")
    if not np.isfinite(cost).all():
        raise InvalidInputError("cost matrix has non-finite entries")
    return cost


def _column_duals(cost, assignment, v0):
    """Exact column duals of an optimal pairing, by Bellman-Ford from ``v0``.

    Relaxes ``v_j <= cost_ij - u_i`` with
    ``u_i = cost[i, assignment[i]] - v[assignment[i]]`` until ``v`` stops
    moving.  Only a row whose assigned column moved in the last pass can
    relax anything new, so each pass scans just those rows; the result
    equals the full-scan (Jacobi) iteration bit for bit.  Optimality of
    the pairing rules out negative cycles, so that takes at most ``m``
    passes from any start.
    """
    m = cost.shape[0]
    matched = cost[np.arange(m), assignment]
    v = np.array(v0, dtype=float)
    rows = np.arange(m)
    for _ in range(m):
        block = cost[rows]
        block -= (matched[rows] - v[assignment[rows]])[:, None]
        relaxed = np.minimum(v, block.min(axis=0))
        moved = relaxed != v
        if not moved.any():
            break
        v = relaxed
        rows = np.flatnonzero(moved[assignment])
    return v


def _column_potential(cost):
    """Column potential of the full problem, from a seeded coarse subproblem."""
    n = cost.shape[0]
    m = n // 4
    rng = np.random.default_rng(n)
    rows = rng.choice(n, size=m, replace=False)
    cols = rng.choice(n, size=m, replace=False)
    sub = cost[np.ix_(rows, cols)]
    assigned = _solve(sub)
    v_sub = _column_duals(sub, assigned, np.zeros(m))
    coarse = cost[rows]
    coarse -= (sub[np.arange(m), assigned] - v_sub[assigned])[:, None]
    return coarse.min(axis=0)


def _solve(cost, potential=None):
    """Column assigned to each row of a validated square cost matrix."""
    if potential is None:
        if cost.shape[0] < WARM_START_MIN_N:
            return linear_sum_assignment(cost)[1]
        potential = _column_potential(cost)
    # the dense solve runs on cost - u[:, None] - v with u = min_j (cost - v)
    reduced = cost - potential
    reduced -= reduced.min(axis=1)[:, None]
    return linear_sum_assignment(reduced)[1]


def solve_assignment(cost, *, potential=None):
    """Exact minimum-cost bijection for a square cost matrix.

    Parameters
    ----------
    cost : (n, n) array
    potential : (n,) array, optional
        Column potential to warm-start the dense solve from.  Without
        one, a coarse-subproblem potential is used from
        ``WARM_START_MIN_N`` on.  Any finite potential gives the same
        optimum; a poor one only costs time.

    Ties between optimal bijections are broken in an unspecified but
    deterministic way (same input and potential, same output).

    Returns
    -------
    Pairing
    """
    cost = _check_cost(cost)
    n = cost.shape[0]
    if potential is not None and (
        np.shape(potential) != (n,) or not np.isfinite(potential).all()
    ):
        raise InvalidInputError(f"a potential must be {n} finite numbers")
    assignment = _solve(cost, potential)
    total = float(cost[np.arange(n), assignment].sum())
    return Pairing(assignment=assignment, total_cost=total)
