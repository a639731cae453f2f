"""Exact minimum-cost assignment of a sample onto a grid.

The empirical center-outward map is the bijection between observations
and gridpoints minimizing the total squared Euclidean distance.
``center_outward.empirical_map`` forms that cost matrix with
``squared_cost`` and hands it to ``solve_assignment``, which finds the
bijection with SciPy's exact shortest-augmenting-path
``linear_sum_assignment``.  The solver is that map's internal step: it
takes the matrix as its own workspace, and general matrices are
SciPy's to solve.

Started from zero potentials, SciPy spends nearly all of its time
building up duals that squared-distance costs make easy to guess.  From
``WARM_START_MIN_N`` observations on, the dense solve is therefore
warm-started from a column potential ``v``: it runs on the reduced
matrix ``cost - u - v`` with ``u = min_j (cost - v)``, less each of
its column minima, so that every row and every column holds a zero (the
two reductions that open Jonker & Volgenant's LAPJV).  Subtracting a
constant from a row or a column shifts the total of every bijection by
the same amount, so the reduced matrix has exactly the optimal
bijections of ``cost``: the potential only saves time.

The potential comes from one of two places.

1. The caller.  ``empirical_map`` passes a guess at the column duals of
   the last sample solved on the same gridpoints: that sample's optimal
   pairing, relaxed along each gridpoint's nearest neighbours only,
   which gives a potential between zero and the pairing's exact column
   duals without forming an n x n matrix.  It scales every sample to
   median row norm 1 before forming the cost, so that guess lives in
   the frame of every later cost matrix on those gridpoints.
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
The potential is subtracted at once, and the guard takes two argmin
passes, one over ``cost`` before that and one over ``cost - v`` after,
whose minima an accepted potential keeps as its row minima.  A
turned-down potential is left subtracted: it is one more column shift,
so the fallback runs on ``cost - v``.  That matrix has the optimal
bijections of ``cost``, but it differs from ``cost`` by the rounding of
the shift, so where several bijections attain the optimum the one
returned can depend on the turned-down potential.

A warm solve holds one n x n matrix: the potential, the row minima and
the column minima are all subtracted from ``cost`` in place, and SciPy
solves that same buffer.  The subproblem's ``n // 4`` square submatrix
is solved on a copy, since ``_column_duals`` reads its raw entries
afterwards, and the shifted column minimum that extends its duals is
taken over blocks of rows no larger than it.  Below ``WARM_START_MIN_N``
the cold dense solve runs on ``cost`` as given unless the caller passes
a potential that passes the guard; after one that fails it, the cold
solve runs on ``cost - v``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .errors import InvalidInputError
from .sphere_grid import Grid

# Below this size the cold dense solve is already cheap.
WARM_START_MIN_N = 250

# A given potential is used only if it leaves fewer row-argmin
# collisions than this share of the cost matrix's own (see the module
# docstring; the table behind the value is in CHANGES.md).
KEEP_RATIO = 0.90


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
    # a Grid's points were checked to lie in [-1, 1] when it was made
    if not (np.isfinite(sample).all()
            and (isinstance(grid, Grid) or np.isfinite(pts).all())):
        raise InvalidInputError("non-finite coordinates in sample or grid")
    # cdist forms the differences directly, so entries are exact to rounding
    return cdist(sample, pts, metric="sqeuclidean")


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
        del block  # freed before the next pass forms its own
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
    # the recursive solve reduces its matrix in place, and the duals
    # are recovered from the raw entries
    assigned = solve_assignment(sub.copy())
    v_sub = _column_duals(sub, assigned, np.zeros(m))
    shift = sub[np.arange(m), assigned] - v_sub[assigned]
    # min_i (cost[rows[i]] - shift[i]) over blocks of rows, each no larger
    # than the submatrix, so no (n/4) x n copy is formed; min is exact
    step = max(1, m * m // n)
    potential = np.full(n, np.inf)
    for start in range(0, m, step):
        block = cost[rows[start:start + step]]
        block -= shift[start:start + step, None]
        np.minimum(potential, block.min(axis=0), out=potential)
        del block  # freed before the next one is formed
    return potential


def _collisions(columns):
    """Rows whose minimizing column another row shares: ``n`` minus the distinct ones."""
    n = columns.shape[0]
    return n - np.count_nonzero(np.bincount(columns, minlength=n))


def _finish(reduced, row_min):
    """SciPy's columns for ``reduced`` less its row minima ``row_min``, in place."""
    # the dense solve runs on cost - u[:, None] - v with u = min_j (cost - v),
    # then on that minus its column minima, so every row and column has a zero
    reduced -= row_min[:, None]
    reduced -= reduced.min(axis=0)
    return linear_sum_assignment(reduced)[1]


def solve_assignment(cost, potential=None):
    """Columns of an exact minimum-cost bijection, reducing ``cost`` in place.

    ``empirical_map``'s solver; SciPy's ``linear_sum_assignment`` serves
    general matrices.

    Parameters
    ----------
    cost : (n, n) float64 ndarray
        Finite squared-distance costs, n >= 2.  The solver's workspace:
        a potential, the row minima and the column minima are subtracted
        from it in place, so its contents are undefined afterwards.
    potential : (n,) float64 ndarray, optional
        Column potential to warm-start the dense solve from.  It is
        subtracted from the matrix at once and started from only if it
        passes the collision guard (``KEEP_RATIO``); one that fails it
        stays subtracted, as one more column shift.  Otherwise, and
        without one, a coarse-subproblem potential is used from
        ``WARM_START_MIN_N`` on, and the cold solve below it.  Any
        finite potential gives an optimum of the same total cost; a
        poor one only costs time.  When several bijections attain it,
        which one comes back can depend on the potential.

    Ties between optimal bijections are broken in an unspecified but
    deterministic way (same input and potential, same output).

    Returns
    -------
    (n,) ndarray
        ``assignment[i]`` is the column paired with row ``i``.
    """
    if potential is not None:
        raw = _collisions(cost.argmin(axis=1))
        cost -= potential
        nearest = cost.argmin(axis=1)
        if _collisions(nearest) < KEEP_RATIO * raw:
            return _finish(cost, cost[np.arange(cost.shape[0]), nearest])
        # turned down: the potential stays subtracted, one column shift
        # more that moves every bijection's total alike
    if cost.shape[0] < WARM_START_MIN_N:
        return linear_sum_assignment(cost)[1]
    cost -= _column_potential(cost)
    return _finish(cost, cost.min(axis=1))
