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

Two potentials compete.

1. A coarse subproblem, in the spirit of Schmitzer's multiscale
   transport: a seeded random ``n // 4`` by ``n // 4`` submatrix is
   solved the same way, recursively, its exact column duals are
   recovered from the optimal pairing by Bellman-Ford
   (``_column_duals``), and they are extended to the full problem.
2. Candidates the caller passes.  ``center_outward.empirical_map``
   passes the exact potentials a reused ``Grid`` keeps from earlier
   samples (one is recovered, with the same Bellman-Ford, after a solve
   the candidates lost, at the next call on that grid).

Each potential is scored by its row-argmin collisions, ``n`` minus the
number of distinct ``argmin_j (cost_ij - v_j)``, which costs one reduced
matrix; a candidate starts the solve only if it beats the subproblem.
That guard matters.  At n = 400 (mix2cauchy, d = 2) the subproblem
leaves 229-258 collisions and no potential 257-303.  A potential of
another sample of the same kind leaves 189-275.  One from a sphericized
sample, offered to a raw one or the other way round, left 318-357 when
potentials were kept as they are, and 198-277 in the spread-free frame
``empirical_map`` keeps them in.

Reusing a ``Grid`` is what brings kept potentials into play; a grid
built for one call only ever uses the subproblem.  The store is not
locked: threads sharing one grid can lose potentials, which costs only
time, never the optimum.

Timings on a 2-core x86 machine: the subproblem halves a one-off
two-sample test at n = 1000 (median 436 ms to 214 ms) and cuts the bare
solve 2-3.5x at n = 2000.  At n = 400 (mix2cauchy, 24 solves, median of
best-of-3) the SciPy finish takes 33.5 ms cold, 22.0 ms from the
subproblem, 13.6 ms from the exact potential of another sample on the
same grid, 4.8 ms from that of the previous shift of the same sample
and 2.2 ms from the problem's own; recovering an exact potential costs
10-33 ms (median 13.6), so it is done only after a miss.  Below
``WARM_START_MIN_N`` the cold dense solve runs unchanged.
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
    observation ``i``.  ``potential`` is the column potential the dense
    solve started from (None for a cold solve) and ``reused`` says
    whether it was one of the caller's candidates rather than the
    coarse subproblem's.
    """

    assignment: np.ndarray
    total_cost: float
    potential: np.ndarray | None = None
    reused: bool = False


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


def _collisions(reduced):
    """``n`` minus the number of distinct columns holding a row minimum.

    Zero when the row minima already form a bijection; the fewer
    collisions a potential leaves, the less the dense solve has to do.
    """
    return reduced.shape[0] - np.unique(reduced.argmin(axis=1)).size


def _solve(cost, potentials=()):
    """Column assigned to each row of a validated square cost matrix.

    Returns ``(assignment, start, reused)``: the column potential the
    dense solve started from (None below ``WARM_START_MIN_N``) and
    whether it was one of ``potentials``.
    """
    if cost.shape[0] < WARM_START_MIN_N:
        return linear_sum_assignment(cost)[1], None, False
    # the dense solve runs on cost - u[:, None] - v with u = min_j (cost - v)
    start = _column_potential(cost)
    reduced = cost - start
    reused = False
    if potentials:
        best = _collisions(reduced)
        for v in potentials:
            trial = cost - v
            score = _collisions(trial)
            if score < best:
                best, start, reduced, reused = score, v, trial, True
    reduced -= reduced.min(axis=1)[:, None]
    return linear_sum_assignment(reduced)[1], start, reused


def solve_assignment(cost, *, potentials=()):
    """Exact minimum-cost bijection for a square cost matrix.

    Parameters
    ----------
    cost : (n, n) array
    potentials : sequence of (n,) arrays
        Candidate column potentials for the warm start (used from
        ``WARM_START_MIN_N`` on).  Each is scored by its row-argmin
        collisions on ``cost`` and the best one starts the dense solve,
        unless none beats the coarse-subproblem potential.  Any finite
        potential gives the same optimum; a poor one only costs time.

    Ties between optimal bijections are broken in an unspecified but
    deterministic way (same input and potentials, same output).

    Returns
    -------
    Pairing
    """
    cost = _check_cost(cost)
    n = cost.shape[0]
    for v in potentials:
        if np.shape(v) != (n,) or not np.isfinite(v).all():
            raise InvalidInputError(f"a potential must be {n} finite numbers")
    assignment, start, reused = _solve(cost, potentials)
    total = float(cost[np.arange(n), assignment].sum())
    return Pairing(assignment=assignment, total_cost=total, potential=start,
                   reused=reused)
