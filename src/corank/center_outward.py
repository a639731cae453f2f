"""Empirical center-outward ranks and signs.

The empirical center-outward distribution function sends each
observation to the ball gridpoint it is matched with under the exact
minimum-squared-distance assignment.  The rank of an observation is the
radius index of its gridpoint (0 at the origin, 1/2 at a tie-break
point), its sign the gridpoint's unit direction.  Both are carried as
exact grid bookkeeping, never recomputed from floating coordinates, so
any statistic built on them is a pure function of the assignment.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .assignment import WARM_START_MIN_N, _column_duals, solve_assignment, squared_cost
from .errors import InvalidInputError, InvalidSpecError
from .sphere_grid import Grid, GridSpec, RanksSigns, build_grid

# Gridpoint sets whose exact potential is kept; past this many, the
# least recently used set's store is dropped.
STORE_SIZE = 4

# (points.shape, points.tobytes()) -> that gridpoint set's store, least
# recently used first; the lock guards reordering and eviction
_stores = OrderedDict()
_stores_lock = threading.Lock()


@dataclass(frozen=True)
class CenterOutwardMap:
    """Result of assigning a sample onto a ball grid.

    Attributes
    ----------
    values : (n, d) ndarray
        Gridpoint coordinates assigned to each observation; row ``i``
        is the empirical map evaluated at observation ``i``.
    assignment : (n,) ndarray
        Index into ``grid.points`` per observation.
    total_cost : float
        Total squared distance of the optimal pairing of the given
        (uncentred) sample.
    grid : Grid
        The target grid (carries the rank/sign bookkeeping).
    offset : (d,) ndarray
        Coordinate-wise median subtracted from the sample before the
        cost matrix is formed.
    """

    values: np.ndarray
    assignment: np.ndarray
    total_cost: float
    grid: Grid
    offset: np.ndarray


def _has_duplicate_rows(z, sorted_columns):
    """Whether ``z`` repeats a row; ``sorted_columns`` is ``z`` sorted per column."""
    # a repeated row repeats a value in every column, which the sorted
    # columns rule out in O(n d) for continuous data
    if not (sorted_columns[1:] == sorted_columns[:-1]).any(axis=0).all():
        return False
    return np.unique(z, axis=0).shape[0] < z.shape[0]


def _spread(z):
    """Two divisors that bring ``z`` to median row norm 1, applied in turn.

    The first is the largest |coordinate|, so squaring the rows it leaves
    cannot overflow, and their median norm, the second, underflows only
    below about 1e-154 of the largest coordinate.
    Both are 1 when that median is 0, which happens only when more than
    half the rows are 0.
    """
    top = np.abs(z).max()
    if top == 0.0:
        return 1.0, 1.0
    y = z / top
    mid = z.shape[0] // 2
    spread = np.partition(np.sqrt((y * y).sum(axis=1)), mid)[mid]
    return (top, spread) if spread > 0.0 else (1.0, 1.0)


def _store_for(points):
    """The store kept for this gridpoint set, made if it has none."""
    key = (points.shape, points.tobytes())
    with _stores_lock:
        store = _stores.get(key)
        if store is None:
            store = _stores[key] = {}
            if len(_stores) > STORE_SIZE:
                _stores.popitem(last=False)
        else:
            _stores.move_to_end(key)
    return store


def _kept_potential(store, points):
    """The store's exact potential, recovering a pending one first.

    A gridpoint set's first solve records its sample and assignment as
    pending; the next call recovers that sample's exact column duals
    from them before it forms its own cost matrix, so the recovery's
    matrices are freed before that one is made.  Every update replaces
    a whole entry, so concurrent calls can at worst repeat a recovery,
    which costs only time.
    """
    kept = store.get("kept")
    if kept is None:
        pending = store.pop("pending", None)
        if pending is not None:
            z_prev, assigned = pending
            kept = _column_duals(squared_cost(z_prev, points), assigned,
                                 np.zeros(points.shape[0]))
            store["kept"] = kept
    return kept


def empirical_map(sample, grid, tie_break_seed=0):
    """Compute the empirical center-outward map of a sample.

    Parameters
    ----------
    sample : (n, d) array
        Observations, d >= 2, all finite.
    grid : GridSpec or Grid
        Target grid.  A GridSpec is built here (using
        ``tie_break_seed``); a prebuilt Grid is used as-is, which lets
        callers reuse one grid across many samples or supply a rotated
        grid.  Repeated calls on equal gridpoints, reused or rebuilt,
        speed up later assignments (see Notes).
    tie_break_seed : int
        Seed for tie-break directions when building from a GridSpec.

    Returns
    -------
    CenterOutwardMap

    Notes
    -----
    A translation of the sample adds only row and column constants to
    the squared-distance cost, so it leaves the optimal assignment
    unchanged in exact arithmetic.  In floating point a large common
    offset swamps the small differences that decide the assignment;
    the coordinate-wise median is therefore subtracted before the cost
    matrix is formed, and reported as ``offset``.

    A rescaling multiplies the cost by a constant and adds column
    constants, so it does not change the optimal assignment either; but
    at a spread near 1e150 or 1e-160 the squared distances overflow or
    lose every digit that decides it.  The centred sample is therefore
    divided by its median row norm (computed after dividing by its
    largest |coordinate|, so that it neither overflows nor underflows)
    before the cost matrix is formed.  It is left unscaled when that
    norm is 0, which happens only when more than half the rows equal
    the median.

    Every cost matrix on one set of gridpoints is thus in one frame, so
    the exact column potential of one sample is a good warm start for
    the next.  The module keeps one such potential per gridpoint set,
    keyed by the points themselves, so separately built grids with
    equal points share it, and a call that builds its own grid from a
    GridSpec starts warm from the third call at that size on.  It keeps
    ``STORE_SIZE`` sets and drops the least recently used one.  From
    ``assignment.WARM_START_MIN_N`` observations on, the first solve on
    a gridpoint set records its scaled sample and assignment; the next
    call recovers that sample's exact column duals, before it forms its
    own cost matrix, and that call and every later one offer them to
    the dense solve, which uses them only if they pass its collision
    guard (see ``assignment``).  The potential is kept until its set's
    store is dropped; a call that the guard turns it down for runs the
    subproblem and leaves the store as it was.  A gridpoint set used
    once never pays for the recovery.  A sample with repeated rows has
    several optimal assignments, so it neither reads nor writes the
    store, and the one returned never depends on what ran before.  The
    store never changes an assignment otherwise either: any potential
    leads to the same optimum.
    """
    sample = np.asarray(sample, dtype=float)
    if sample.ndim != 2:
        raise InvalidInputError(f"sample must be 2-d, got shape {sample.shape}")
    n, d = sample.shape
    if d < 2:
        raise InvalidSpecError(f"center-outward ranks need d >= 2, got d={d}")
    if not np.isfinite(sample).all():
        raise InvalidInputError("sample has non-finite entries")
    if isinstance(grid, GridSpec):
        grid = build_grid(grid, tie_break_seed=tie_break_seed)
    elif not isinstance(grid, Grid):
        raise InvalidInputError("grid must be a GridSpec or a Grid")
    if grid.n != n or grid.d != d:
        raise InvalidInputError(
            f"grid shape ({grid.n}, {grid.d}) does not match sample shape ({n}, {d})"
        )
    # np.median's value, without its fixed cost of about 20 us per call
    ordered = np.sort(sample, axis=0)
    offset = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
    z = sample - offset
    top, spread = _spread(z)
    z = z / top / spread
    if n < WARM_START_MIN_N or _has_duplicate_rows(
        z, (ordered - offset) / top / spread
    ):
        assignment = solve_assignment(squared_cost(z, grid.points)).assignment
    else:
        store = _store_for(grid.points)
        kept = _kept_potential(store, grid.points)
        cost = squared_cost(z, grid.points)  # formed after the recovery
        assignment = solve_assignment(cost, potential=kept).assignment
        if kept is None:
            store["pending"] = (z, assignment)
    values = grid.points[assignment]
    with np.errstate(over="ignore"):  # inf once the spread passes about 1e154
        total_cost = float(((sample - values) ** 2).sum(axis=1).sum())
    return CenterOutwardMap(
        values=values,
        assignment=assignment,
        total_cost=total_cost,
        grid=grid,
        offset=offset,
    )


def ranks_signs(com):
    """Extract ranks and signs from a CenterOutwardMap.

    Returns
    -------
    RanksSigns
    """
    grid = com.grid
    rank = grid.rank_values()[com.assignment]
    sign = grid.sign_vectors()[com.assignment]
    return RanksSigns(rank=rank, sign=sign, n_r=grid.n_r)
