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
   column duals of the first sample solved on the same gridpoints,
   recovered once from that sample's optimal pairing by Bellman-Ford
   (``_column_duals``) and kept for every later call.  It scales every
   sample to median row norm 1 before forming the cost, so those duals
   live in the frame of every later cost matrix on those gridpoints.
2. Otherwise, a coarse subproblem, in the spirit of Schmitzer's
   multiscale transport: a seeded random ``n // 4`` by ``n // 4``
   submatrix is solved the same way, recursively, its exact column duals
   are recovered with ``_column_duals``, and they are extended to the
   full problem.  This is the whole warm start of a call on new
   gridpoints, of a sample with repeated rows, and of a call whose
   given potential fails the guard below.

A caller's potential can start the solve worse than the subproblem when
it comes from a sample of another shape, for instance a Gaussian
sample's duals for a sphericized heavy-tailed one.  A cheap observable
tells the two apart: the number of row-argmin collisions (``n`` minus
the number of distinct row minimizers) of ``cost - v`` relative to that
of ``cost``.  A potential whose reduced matrix already spreads the row
minima over more columns is close to the problem's own duals.  Below
``KEEP_RATIO`` the given potential is used; otherwise the call falls
back to the subproblem (or the cold solve below ``WARM_START_MIN_N``).
A potential that passes costs one extra argmin pass over ``cost``: the
reduced matrix is formed anyway, and its row minima come from its
argmin.  One that fails costs that matrix and both argmin passes on
top of the subproblem path; the caller keeps offering it all the same.

Timings on a 2-core x86 machine: the subproblem halves a one-off
two-sample test at n = 1000 (median 436 ms to 214 ms) and cuts the bare
solve 2-3.5x at n = 2000.  At n = 1000 (mix2cauchy, 3 solves, median of
best-of-3) the SciPy finish takes 308 ms cold, 180 ms from the
subproblem and 97 ms from the exact potential of another sample on the
same gridpoints; recovering that potential from zeros took 91 ms.
Below ``WARM_START_MIN_N`` the cold dense solve runs unless the caller
passes a potential that passes the guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidInputError

# Below this size the cold dense solve is already cheap.
WARM_START_MIN_N = 250

# A given potential is used only if it leaves fewer row-argmin
# collisions than this share of the cost matrix's own (see the module
# docstring; the table behind the value is in CHANGES.md).
KEEP_RATIO = 0.90


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


def _collisions(columns):
    """Rows whose minimizing column another row shares: ``n`` minus the distinct ones."""
    return columns.shape[0] - np.unique(columns).shape[0]


def _finish(reduced, row_min):
    # the dense solve runs on cost - u[:, None] - v with u = min_j (cost - v)
    reduced -= row_min[:, None]
    return linear_sum_assignment(reduced)[1]


def _solve(cost, potential=None):
    """Columns assigned to the rows of a validated square cost matrix."""
    if potential is not None:
        reduced = cost - potential
        nearest = reduced.argmin(axis=1)
        if _collisions(nearest) < KEEP_RATIO * _collisions(cost.argmin(axis=1)):
            return _finish(reduced, reduced[np.arange(cost.shape[0]), nearest])
        del reduced  # freed before the subproblem path forms its own
    if cost.shape[0] < WARM_START_MIN_N:
        return linear_sum_assignment(cost)[1]
    reduced = cost - _column_potential(cost)
    return _finish(reduced, reduced.min(axis=1))


def solve_assignment(cost, *, potential=None):
    """Exact minimum-cost bijection for a square cost matrix.

    Parameters
    ----------
    cost : (n, n) array
    potential : (n,) array, optional
        Column potential to warm-start the dense solve from.  It is
        used only if it passes the collision guard (``KEEP_RATIO``);
        otherwise, and without one, a coarse-subproblem potential is
        used from ``WARM_START_MIN_N`` on.  Any finite potential gives
        the same optimum; a poor one only costs time.

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
