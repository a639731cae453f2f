"""Regular grids over the unit ball.

A grid with ``n = n_R * n_S + n_0`` points is the product of ``n_R``
equispaced radii ``r/(n_R+1)`` with ``n_S`` (nearly) uniform unit
directions, plus ``n_0`` leftover points near the origin.  These grids
are the targets of the optimal-assignment map that defines empirical
center-outward ranks and signs: the radius index of an assigned
gridpoint is the observation's rank, the direction is its sign.

Leftover handling: ``n_0 = 1`` places one point exactly at the origin;
``n_0 >= 2`` places the leftovers at radius ``1/(2(n_R+1))`` along
``n_0`` directions drawn without replacement from the direction set
(seeded, so grids are reproducible).  Points assigned there carry rank
``0`` and ``1/2`` respectively.

With ``symmetrize`` the directions come in exact antipodal pairs and
``n_S`` must be even; the direction sum is then exactly the zero
vector.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError, InvalidSpecError
from .scores import ScoreFunction

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class GridSpec:
    """Shape of a ball grid: sample size, dimension, factorization.

    Attributes
    ----------
    n : int
        Total number of gridpoints, equal to the sample size.
    d : int
        Dimension of the ambient space.
    n_r : int
        Number of distinct radii (number of nonzero rank values).
    n_s : int
        Number of unit directions per radius.
    n_0 : int
        Leftover points, ``n - n_r * n_s``; must satisfy
        ``0 <= n_0 < min(n_r, n_s)``.
    symmetrize : bool
        If True, directions form exact antipodal pairs (``n_s`` even).
    """

    n: int
    d: int
    n_r: int
    n_s: int
    n_0: int
    symmetrize: bool = False

    def __post_init__(self):
        if self.n < 2:
            raise InvalidSpecError(f"grid needs n >= 2, got n={self.n}")
        if self.d < 1:
            raise InvalidSpecError(f"dimension must be >= 1, got d={self.d}")
        if self.n_r < 1 or self.n_s < 1:
            raise InvalidSpecError(
                f"need n_r >= 1 and n_s >= 1, got n_r={self.n_r}, n_s={self.n_s}"
            )
        if self.n != self.n_r * self.n_s + self.n_0:
            raise InvalidSpecError(
                f"n = n_r*n_s + n_0 violated: {self.n} != "
                f"{self.n_r}*{self.n_s} + {self.n_0}"
            )
        if not 0 <= self.n_0 < min(self.n_r, self.n_s):
            raise InvalidSpecError(
                f"need 0 <= n_0 < min(n_r, n_s), got n_0={self.n_0} "
                f"with n_r={self.n_r}, n_s={self.n_s}"
            )
        if self.symmetrize and self.n_s % 2 != 0:
            raise InvalidSpecError(
                f"symmetrize requires even n_s, got n_s={self.n_s}"
            )


def factorize(n, n_r=None, n_s=None, even_n_s=False):
    """Split a sample size into radii, directions, and leftovers.

    Parameters
    ----------
    n : int
        Sample size, at least 2.
    n_r, n_s : int, optional
        Explicit factorization.  Give both or neither.
    even_n_s : bool
        Balanced policy only: restrict to even ``n_s`` so the result
        can be symmetrized.

    Returns
    -------
    (n_r, n_s, n_0) : tuple of int

    Notes
    -----
    One search makes every split.  Its candidates are the explicit
    pair, or else ``(n_r, n // n_r)`` for every ``n_r`` in 1..n, with
    ``n_s`` lowered by one where ``even_n_s`` needs it even.  Among the
    candidates with ``n_s >= 1`` and ``0 <= n_0 < min(n_r, n_s)``, the
    one minimizing ``|n_r - n_s|`` wins, ties broken by smaller ``n_0``
    then larger ``n_s``.
    """
    if n < 2:
        raise InvalidSpecError(f"grid needs n >= 2, got n={n}")
    if (n_r is None) != (n_s is None):
        raise InvalidSpecError("give both n_r and n_s or neither")
    if n_r is not None:
        if n_r < 1 or n_s < 1:
            raise InvalidSpecError(
                f"need n_r >= 1 and n_s >= 1, got n_r={n_r}, n_s={n_s}"
            )
        pairs = [(n_r, n_s)]
    else:
        step = 2 if even_n_s else 1
        pairs = ((r, n // r // step * step) for r in range(1, n + 1))
    # 0 <= n_0 < n_s implies n_s >= 1; min(r, s) would double the time
    best = min(((abs(r - s), n - r * s, -s, r) for r, s in pairs
                if 0 <= n - r * s < r and n - r * s < s), default=None)
    if best is not None:
        _, n_0, minus_s, r = best
        return r, -minus_s, n_0
    if n_r is not None:
        raise InvalidSpecError(
            f"explicit factorization invalid for n={n}: n_0={n - n_r * n_s} "
            f"not in [0, min({n_r}, {n_s}))"
        )
    raise InvalidSpecError(
        f"no factorization of n={n} with even n_s; pass n_r/n_s "
        "explicitly or disable symmetrization"
    )


def symmetrizes(n_r=None, n_s=None):
    """Whether a grid symmetrizes its directions unless told not to.

    It does, except when both counts are explicit and ``n_s`` is odd:
    an odd number of directions cannot come in opposite pairs.
    """
    return not (n_r is not None and n_s is not None and n_s % 2)


def make_spec(n, d, n_r=None, n_s=None, symmetrize=False):
    """Factorize ``n`` (balanced unless explicit) and return a GridSpec."""
    n_r, n_s, n_0 = factorize(n, n_r=n_r, n_s=n_s, even_n_s=symmetrize and n_r is None)
    return GridSpec(n=n, d=d, n_r=n_r, n_s=n_s, n_0=n_0, symmetrize=symmetrize)


def _circle_directions(m, step_denom):
    k = np.arange(m)
    theta = 2.0 * np.pi * k / step_denom
    return np.column_stack([np.cos(theta), np.sin(theta)])


def _fibonacci_sphere(m):
    # golden-angle spiral; z runs through midpoints of m equal bands
    i = np.arange(m)
    z = 1.0 - (2.0 * i + 1.0) / m
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = GOLDEN_ANGLE * i
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _halton_sphere(m, d):
    # scipy.stats is most of the package's import time, and only d >= 4
    # grids come here
    from scipy.stats import qmc

    eng = qmc.Halton(d=d, scramble=False)
    eng.fast_forward(1)  # index 0 is the all-zero point
    u = eng.random(m)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    z = ndtri(u)
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms < 1e-12):  # pragma: no cover - interior Halton points only
        raise InvalidSpecError("degenerate direction from low-discrepancy map")
    return z / norms[:, None]


def unit_directions(n_s, d, symmetrize=False):
    """Return ``n_s`` unit vectors spread over the sphere in dimension ``d``.

    d=1 alternates the two endpoints, d=2 uses equispaced angles, d=3 a
    golden-angle spiral, and d>=4 a Halton sequence pushed through the
    inverse normal cdf and normalized.  With ``symmetrize`` every
    direction is immediately followed by its exact floating-point
    negation; adjacent pairs cancel exactly under any left-to-right or
    blocked summation order, so the direction sum is exactly zero.
    """
    if d < 1:
        raise InvalidSpecError(f"dimension must be >= 1, got d={d}")
    if n_s < 1:
        raise InvalidSpecError(f"need n_s >= 1, got n_s={n_s}")
    if symmetrize and n_s % 2 != 0:
        raise InvalidSpecError(f"symmetrize requires even n_s, got n_s={n_s}")
    m = n_s // 2 if symmetrize else n_s
    if d == 1:
        base = np.ones((m, 1))
    elif d == 2:
        # symmetrized: the first half of the full equispaced set, so the
        # union with the antipodes is again equispaced
        base = _circle_directions(m, n_s)
    elif d == 3:
        base = _fibonacci_sphere(m)
    else:
        base = _halton_sphere(m, d)
    if symmetrize:
        out = np.empty((n_s, d))
        out[0::2] = base
        out[1::2] = -base
        return out
    if d == 1:
        base[1::2] = -1.0
    return base


@dataclass(frozen=True)
class RanksSigns:
    """Per-observation ranks and unit sign vectors.

    ``rank`` takes values in {0, 1/2, 1, ..., n_r}; the zero vector
    stands in as the sign of an observation mapped to the origin.
    Normalized ranks are ``rank / (n_r + 1)``.  Elliptical ranks reuse
    this container with ``n_r = n`` (divisor ``n + 1``).
    """

    rank: np.ndarray
    sign: np.ndarray
    n_r: int

    @property
    def n(self):
        return self.rank.shape[0]

    @property
    def d(self):
        return self.sign.shape[1]

    @property
    def rank_divisor(self):
        return self.n_r + 1


@dataclass(frozen=True)
class Grid:
    """A realized ball grid: point coordinates plus rank/sign bookkeeping.

    ``radius_index`` is 1..n_r for regular points and 0 for leftovers;
    ``direction_index`` is 1..n_s (0 for an origin point);
    ``is_tiebreak`` marks the near-origin leftover points that carry
    rank 1/2.  Ranks and signs are always read from these integer
    fields, never recovered from floating coordinates.  A grid also
    keeps the vector scores of its gridpoints for the last score used
    (see :meth:`score_table`).

    Every gridpoint coordinate lies in [-1, 1], which is checked when
    the grid is made (by ``build_grid`` or ``dataclasses.replace``);
    ``points`` is a read-only view, so it stays so.
    """

    points: np.ndarray
    radius_index: np.ndarray
    direction_index: np.ndarray
    is_tiebreak: np.ndarray
    directions: np.ndarray
    spec: GridSpec | None
    tie_break_seed: int = 0
    # one slot holding (score, table, cov) of the last score used; a grid
    # made by dataclasses.replace starts with it empty
    _score_table: list = field(
        default_factory=lambda: [None], init=False, compare=False, repr=False
    )

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float).view()
        # the map's overflow bound takes every coordinate in [-1, 1]
        reach = np.abs(points).max(initial=0.0)
        if not reach <= 1.0:
            raise InvalidInputError(
                f"gridpoint coordinates reach {reach:.3g}; a ball grid's lie in [-1, 1]"
            )
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]

    @property
    def n_r(self):
        return int(self.radius_index.max())

    def rank_values(self):
        """Per-gridpoint rank: 0 at the origin, 1/2 at tie-breaks, else r."""
        ranks = self.radius_index.astype(float)
        ranks[self.is_tiebreak] = 0.5
        return ranks

    def sign_vectors(self):
        """Per-gridpoint unit sign vector (zero row for an origin point)."""
        signs = np.zeros_like(self.points)
        has_dir = self.direction_index > 0
        signs[has_dir] = self.directions[self.direction_index[has_dir] - 1]
        return signs

    def score_table(self, score):
        """Vector scores at every gridpoint, and the score covariance.

        Returns ``(table, cov)``, both read-only.  ``table`` is the
        ``(n, d)`` array ``score.vector_scores`` gives for the grid's
        own ranks and signs, so an observation assigned to gridpoint
        ``j`` has vector score ``table[j]``: the score is evaluated once
        on all gridpoints, elementwise for a J and row by row for a
        :class:`~corank.scores.VectorScore`.  ``cov`` is
        ``score.score_cov(d, grid)`` for a VectorScore and None for a
        spherical score, whose statistic uses the squared norm of J.

        Both are kept for the last score used; another score replaces
        them.  Equal spherical scores share a table, so a score given by
        name finds it on every call after the first; a VectorScore finds
        only its own.  Concurrent callers can at worst compute a table
        more than once.
        """
        entry = self._score_table[0]
        if entry is not None:
            kept, table, cov = entry
            if kept is score or (isinstance(score, ScoreFunction) and kept == score):
                return table, cov
        table = score.vector_scores(
            RanksSigns(self.rank_values(), self.sign_vectors(), self.n_r)
        ).view()  # read-only views leave the flags of a caller's array alone
        table.setflags(write=False)
        cov = None
        if not isinstance(score, ScoreFunction):
            cov = np.asarray(score.score_cov(self.d, self), dtype=float).view()
            cov.setflags(write=False)
        self._score_table[0] = (score, table, cov)
        return table, cov


def build_grid(spec, tie_break_seed=0):
    """Construct the gridpoints for a GridSpec.

    Deterministic given ``(spec, tie_break_seed)``; the seed only
    matters when ``n_0 >= 2`` (it selects the tie-break directions).

    Returns
    -------
    Grid
    """
    dirs = unit_directions(spec.n_s, spec.d, spec.symmetrize)
    scale = 1.0 / (spec.n_r + 1)

    r_idx = np.repeat(np.arange(1, spec.n_r + 1), spec.n_s)
    s_idx = np.tile(np.arange(1, spec.n_s + 1), spec.n_r)
    points = (r_idx * scale)[:, None] * dirs[s_idx - 1]
    tiebreak = np.zeros(spec.n_r * spec.n_s, dtype=bool)

    if spec.n_0 == 1:
        points = np.vstack([points, np.zeros((1, spec.d))])
        r_idx = np.append(r_idx, 0)
        s_idx = np.append(s_idx, 0)
        tiebreak = np.append(tiebreak, False)
    elif spec.n_0 >= 2:
        rng = np.random.default_rng(tie_break_seed)
        chosen = np.sort(rng.choice(spec.n_s, size=spec.n_0, replace=False))
        extra = (0.5 * scale) * dirs[chosen]
        points = np.vstack([points, extra])
        r_idx = np.append(r_idx, np.zeros(spec.n_0, dtype=int))
        s_idx = np.append(s_idx, chosen + 1)
        tiebreak = np.append(tiebreak, np.ones(spec.n_0, dtype=bool))

    return Grid(
        points=points,
        radius_index=r_idx,
        direction_index=s_idx,
        is_tiebreak=tiebreak,
        directions=dirs,
        spec=spec,
        tie_break_seed=tie_break_seed,
    )


GRID_CSV_FIELDS = ("radius_index", "direction_index", "is_tiebreak")


def _write_grid(grid, fh):
    # csv writes a float as its repr, so the coordinates round-trip exactly
    writer = csv.writer(fh)
    writer.writerow([f"x{j + 1}" for j in range(grid.d)] + list(GRID_CSV_FIELDS))
    fields = np.column_stack([grid.radius_index, grid.direction_index, grid.is_tiebreak])
    writer.writerows(p + f for p, f in zip(grid.points.tolist(), fields.tolist()))


def grid_to_csv(grid, path):
    """Write a grid to CSV with columns x1..xd, radius_index, direction_index, is_tiebreak."""
    if hasattr(path, "write"):
        _write_grid(grid, path)
        return
    with open(path, "w", newline="") as fh:
        _write_grid(grid, fh)
