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

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .assignment import WARM_START_MIN_N, solve_assignment, squared_cost
from .errors import InvalidInputError, InvalidSpecError
from .sphere_grid import Grid, GridSpec, RanksSigns, build_grid

# Nearest other gridpoints per gridpoint whose constraints give the
# warm start its guess, and the Jacobi passes the guess makes over them.
NEIGHBOURS = 8
GUESS_PASSES = 16

# (points, z, assignment, table) of the last solve from WARM_START_MIN_N
# observations on without repeated rows: its gridpoints, scaled sample
# and optimal pairing, and the points' neighbour table, None until a
# call on those points guesses
_latest = None


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
    half the rows are 0.  Raises InvalidInputError when the squared
    distances of the scaled sample to the unit ball can overflow.
    """
    top = np.abs(z).max()
    if top == 0.0:
        return 1.0, 1.0
    y = z / top
    mid = z.shape[0] // 2
    spread = np.partition(np.sqrt((y * y).sum(axis=1)), mid)[mid]
    # the scaled sample's largest |coordinate| is 1 / spread (top when it
    # is left unscaled) and a gridpoint's are at most 1, so no squared
    # distance exceeds d (that + 1)^2
    limit = np.sqrt(np.finfo(float).max / z.shape[1]) - 1.0
    if spread == 0.0:
        if top > limit:
            raise InvalidInputError(
                f"sample coordinates reach {top:.3g} from the median, "
                "so their squared distances overflow"
            )
        return 1.0, 1.0
    if spread * limit < 1.0:
        # a nonzero spread is at least about 2e-162, so 1 / spread is finite
        raise InvalidInputError(
            f"the sample's largest |coordinate| is {1.0 / spread:.3g} times "
            "its median row norm, so its squared distances overflow"
        )
    return top, spread


def _neighbour_table(points):
    """Each gridpoint's nearest gridpoints and the parts of its guess steps.

    Returns ``(near, base, diff)``, each laid out (``NEIGHBOURS + 1``, m):
    ``near[t, j]`` is the ``t``-th nearest gridpoint to ``j`` (``j``
    itself first), ``base[t, j] = |g_j|^2 - |g_k|^2`` and
    ``diff[t, j] = g_j - g_k`` for ``k = near[t, j]``.
    """
    near = cKDTree(points).query(points, k=NEIGHBOURS + 1)[1].T
    norms = (points * points).sum(axis=1)
    return near, norms - norms[near], points - points[near]


def _neighbour_guess(z, assignment, table):
    """A column potential relaxed along grid neighbours from a solved sample.

    ``assignment`` is the optimal pairing of the scaled sample ``z``;
    ``table`` is ``_neighbour_table`` of the gridpoints.  Relaxes
    ``v_j <= |z_o(k) - g_j|^2 - |z_o(k) - g_k|^2 + v_k``, for ``o(k)``
    the observation paired with ``k``, over each gridpoint's
    ``NEIGHBOURS`` nearest gridpoints ``k`` only, by ``GUESS_PASSES``
    Jacobi passes from zeros.  Those are some of the constraints that
    the exact column duals of that pairing satisfy, and each pass only
    lowers ``v``, so the guess lies between 0 and the duals that
    ``assignment._column_duals`` finds from zeros; no n x n matrix is
    formed.  The fixed point takes a median of 37 passes at n = 400 and
    62 at n = 1000, but the later passes only fit the kept sample more
    closely: SciPy finishes a study's deltas as fast from 16 passes and
    independent samples faster, while 8 passes finish slower.  A pass
    after the fixed point leaves ``v`` unchanged, so the loop needs no
    early exit.
    """
    near, base, diff = table
    m = z.shape[0]
    owner = np.empty(m, dtype=np.intp)
    owner[assignment] = np.arange(m)
    # |z - g_j|^2 - |z - g_k|^2 = |g_j|^2 - |g_k|^2 - 2 z . (g_j - g_k)
    step = base - 2.0 * np.einsum("tjd,tjd->tj", z[owner[near]], diff)
    v = np.zeros(m)
    candidates = np.empty_like(step)
    for _ in range(GUESS_PASSES):
        np.take(v, near, out=candidates)
        candidates += step
        # near[0] is each gridpoint itself, with step 0, so v never rises
        v = candidates.min(axis=0)
    return v


def _warm_start(points):
    """A potential guessed from the last solve and the neighbour table used.

    Both are None unless the slot holds these points.  The slot is read
    once and only ever replaced whole, so concurrent calls can at worst
    guess from another call's sample or build the table twice, which
    costs only time.
    """
    latest = _latest
    if latest is None or not np.array_equal(latest[0], points):
        return None, None
    _, z, assignment, table = latest
    if table is None:
        table = _neighbour_table(points)
    return _neighbour_guess(z, assignment, table), table


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
    the median.  A sample whose scaled squared distances to the unit
    ball could still overflow, such as one with a row 1e160 times its
    median row norm, raises InvalidInputError before the matrix is
    formed.  The matrix is then this call's own, and
    ``assignment.solve_assignment`` reduces it in place, so a solve
    holds one n x n matrix.

    Every cost matrix on one set of gridpoints is thus in one frame, so
    the optimal pairing of one sample is a good warm start for the next.
    From ``assignment.WARM_START_MIN_N`` observations on, the module
    keeps the gridpoints, scaled sample and assignment of the last solve
    in one slot.  A call on equal gridpoints, whether the grid is reused
    or rebuilt, relaxes the kept pairing's dual constraints along each
    gridpoint's ``NEIGHBOURS`` nearest gridpoints for ``GUESS_PASSES``
    Jacobi passes (``_neighbour_guess``; the neighbour table is built
    once and kept while the gridpoints stay the same) and offers the
    result to the dense solve, which uses it only if it passes its
    collision guard (see ``assignment``).  Whatever the guard decides,
    the call's own solve then replaces the kept one.  So the deltas of
    one power-study replication, which share their draws, start from
    near-exact duals; a call that builds its own grid from a GridSpec
    starts warm from the second call at that size on; a switch of law
    costs one call on the subproblem path; and two shapes of data, or
    two gridpoint sets, taking turns start cold every time.  A sample
    with repeated rows has several optimal assignments, so it neither
    reads nor writes the slot, and the one returned never depends on
    what ran before.  Otherwise the slot never changes the optimal
    total cost, since any potential leads to an optimum; but when
    several pairings attain it, as distinct lattice rows on the d = 2
    grid can, which one comes back can depend on the last solve on the
    same gridpoints (ROADMAP Direction 2).
    """
    global _latest
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
    # _spread's overflow bound takes every gridpoint coordinate in [-1, 1]
    reach = np.abs(grid.points).max()
    if reach > 1.0:
        raise InvalidInputError(
            f"gridpoint coordinates reach {reach:.3g}; a ball grid's lie in [-1, 1]"
        )
    # np.median's value, without its fixed cost of about 20 us per call
    ordered = np.sort(sample, axis=0)
    offset = (ordered[(n - 1) // 2] + ordered[n // 2]) / 2
    z = sample - offset
    top, spread = _spread(z)
    z = z / top / spread
    warm = n >= WARM_START_MIN_N and not _has_duplicate_rows(
        z, (ordered - offset) / top / spread
    )
    guess, table = _warm_start(grid.points) if warm else (None, None)
    assignment = solve_assignment(squared_cost(z, grid.points), potential=guess)
    if warm:
        _latest = (grid.points, z, assignment, table)
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
