"""Exact minimum-cost assignment of a sample onto a grid.

The empirical center-outward map is the bijection between observations
and gridpoints minimizing the total squared Euclidean distance.  The
solver is SciPy's exact shortest-augmenting-path ``linear_sum_assignment``.

Started from zero potentials, that solver spends nearly all of its time
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

1. The caller.  ``center_outward.empirical_map`` passes a guess at
   the column duals of the last sample solved on the same gridpoints:
   that sample's optimal pairing, relaxed along each gridpoint's
   nearest neighbours only, which gives a potential between zero and
   the pairing's exact column duals without forming an n x n matrix.
   It scales every sample to median row norm 1 before forming the
   cost, so that guess lives in the frame of every later cost matrix
   on those gridpoints.
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
so the fallback runs on ``cost - v`` and the potential's sum joins the
constants subtracted.  That matrix has the optimal bijections of
``cost``, but it differs from ``cost`` by the rounding of the shift, so
where several bijections attain the optimum the one returned can
depend on the turned-down potential.

A warm solve needs one n x n matrix.  SciPy reads only the dense matrix
it is given, so with ``overwrite_cost`` (which ``empirical_map`` sets
for the matrix it has just formed) the potential, the row minima and
the column minima are subtracted from ``cost`` in place and SciPy
solves that same buffer; without it the first subtraction makes the
one copy that the rest are made in.  The subproblem's own ``n // 4``
square submatrix is solved on a copy, since ``_column_duals`` reads its
raw entries afterwards.  Whether reduced in place or in a copy, SciPy
receives the same matrix bit for bit, so ``overwrite_cost`` never
changes the assignment.

Timings on a 2-core x86 machine (``perfbench``, seed 1234, 25 s runs,
alternating pairs against the same code with ``cost - v`` formed as a
second matrix): the ``power_n400`` study (mix2cauchy, 200 + 200, three
deltas on one grid) runs a median 29.6 replications a second against
25.1 (10 pairs, all won), and a one-off two-sample test at n = 1000
takes a median 116 ms against 124 (5 pairs), with peak resident memory
113.9 against 119.6 MB.  The second matrix cost 1 779 minor page faults
per ``power_n400`` replication; the single buffer costs none once the
allocator has it.  Under ``tracemalloc`` one ``empirical_map`` call at
n = 600 peaks at 1.20 (warm) and 1.34 (subproblem) times 8 n^2 bytes,
against 2.10 and 2.03.  Below ``WARM_START_MIN_N`` the cold dense solve
runs unless the caller passes a potential that passes the guard; after
one that fails it, the cold solve runs on ``cost - v``.
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
    assigned = _solve(sub)[0]
    v_sub = _column_duals(sub, assigned, np.zeros(m))
    coarse = cost[rows]
    coarse -= (sub[np.arange(m), assigned] - v_sub[assigned])[:, None]
    return coarse.min(axis=0)


def _collisions(columns):
    """Rows whose minimizing column another row shares: ``n`` minus the distinct ones."""
    n = columns.shape[0]
    return n - np.count_nonzero(np.bincount(columns, minlength=n))


def _finish(reduced, row_min, shift):
    """SciPy's columns for ``reduced`` less its row minima ``row_min``.

    ``shift`` is the sum of the column potentials already subtracted from
    ``reduced``; it is returned plus the constants subtracted here.
    """
    # the dense solve runs on cost - u[:, None] - v with u = min_j (cost - v),
    # then on that minus its column minima, so every row and column has a zero
    reduced -= row_min[:, None]
    col_min = reduced.min(axis=0)
    reduced -= col_min
    columns = linear_sum_assignment(reduced)[1]
    # every row and every column lost one constant, so every bijection's
    # total lost their sum
    return columns, row_min.sum() + col_min.sum() + shift


def _solve(cost, potential=None, overwrite=False):
    """Columns assigned to the rows of a validated square cost matrix.

    Also returns the total of the constants subtracted from the assigned
    entries on the way to the matrix SciPy solved (0 when it solved
    ``cost`` as given).  With ``overwrite`` every reduction is made in
    ``cost`` itself, which ends up holding that matrix; otherwise
    ``cost`` is only read, and the first reduction makes the one copy
    that the rest are made in.
    """
    shift = 0.0
    if potential is not None:
        raw = _collisions(cost.argmin(axis=1))
        cost = np.subtract(cost, potential, out=cost if overwrite else None)
        overwrite = True  # cost is now this solve's own
        shift = potential.sum()
        nearest = cost.argmin(axis=1)
        if _collisions(nearest) < KEEP_RATIO * raw:
            return _finish(cost, cost[np.arange(cost.shape[0]), nearest], shift)
        # turned down: the potential stays subtracted, one column shift
        # more that moves every bijection's total alike
    if cost.shape[0] < WARM_START_MIN_N:
        return linear_sum_assignment(cost)[1], shift
    potential = _column_potential(cost)
    reduced = np.subtract(cost, potential, out=cost if overwrite else None)
    return _finish(reduced, reduced.min(axis=1), shift + potential.sum())


def solve_assignment(cost, *, potential=None, overwrite_cost=False):
    """Exact minimum-cost bijection for a square cost matrix.

    Parameters
    ----------
    cost : (n, n) array
    potential : (n,) array, optional
        Column potential to warm-start the dense solve from.  It is
        subtracted from the matrix at once and started from only if it
        passes the collision guard (``KEEP_RATIO``); one that fails it
        stays subtracted, as one more column shift.  Otherwise, and
        without one, a coarse-subproblem potential is used from
        ``WARM_START_MIN_N`` on, and the cold solve below it.  Any
        finite potential gives
        an optimum of the same total cost; a poor one only costs time.
        When several bijections attain it, which one comes back can
        depend on the potential.
    overwrite_cost : bool
        Allow the solver to use ``cost`` as its workspace, as SciPy's
        ``overwrite_a`` does: a potential and every reduction are then
        subtracted from it in place instead of from a second n x n
        matrix.  It is a
        permission, not a promise: only a writeable C-contiguous float64
        array is written, any other is copied first, and the cold dense
        solve (below ``WARM_START_MIN_N``) of a call given no potential
        writes nothing.  The contents of ``cost`` are undefined
        afterwards.  The assignment is the same as without it, but
        ``total_cost`` is then summed from the reduced entries and the
        constants subtracted, so it equals the sum of the assigned raw
        entries only to rounding.

    Ties between optimal bijections are broken in an unspecified but
    deterministic way (same input and potential, same output).

    Returns
    -------
    Pairing
    """
    cost = _check_cost(cost)
    n = cost.shape[0]
    if potential is not None:
        if np.shape(potential) != (n,) or not np.isfinite(potential).all():
            raise InvalidInputError(f"a potential must be {n} finite numbers")
        potential = np.asarray(potential, dtype=float)
    if n == 0:
        return Pairing(assignment=np.empty(0, dtype=np.intp), total_cost=0.0)
    # _check_cost has already copied a matrix of any other dtype
    in_place = overwrite_cost and cost.flags.writeable and cost.flags.c_contiguous
    assignment, shift = _solve(cost, potential, in_place)
    total = cost[np.arange(n), assignment].sum()
    if in_place:  # cost holds SciPy's matrix: the raw entries less shift in all
        total += shift
    return Pairing(assignment=assignment, total_cost=float(total))
