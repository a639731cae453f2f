"""Score functions on normalized ranks, and chi-square helpers.

A (spherical) score function J maps normalized ranks in [0, 1) to the
real line; the per-observation vector score is ``J(R/(n_r+1)) * S``
with S the unit sign vector.  Shipped kinds:

==========  =====================================  ==========
kind        J(r)                                   integral of J^2
==========  =====================================  ==========
sign        1                                      1
wilcoxon    r                                      1/3
vdw         sqrt(Q_d(r)), chi-square(d) quantile   d
==========  =====================================  ==========

Non-spherical scores are supported through :class:`VectorScore`, a raw
map from ball points to score vectors with a user-supplied (or
grid-estimated) d x d score covariance.

The chi-square helpers are built on the regularized incomplete gamma:
the tail is SciPy's ``chdtrc``, ``gammaincc(d/2, x/2)``, and the
quantile its closed-form inverse, ``2 * gammaincinv(d/2, p)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import chdtrc, gammaincinv

from .errors import InvalidInputError, InvalidScoreError

VDW_CLAMP = 1.0 - 1e-12


def chi_sq_sf(d, x):
    """Chi-square(d) survival function (upper tail); NaN maps to NaN."""
    if d < 1:
        raise InvalidInputError(f"dof must be >= 1, got {d}")
    if np.count_nonzero(np.less(x, 0.0)):  # cheaper than np.any for a scalar
        raise InvalidInputError("chi-square argument must be >= 0")
    return chdtrc(d, x)


def chi_sq_quantile(d, p):
    """Chi-square(d) quantile through the inverse regularized lower gamma.

    ``Q_d(p) = 2 * gammaincinv(d/2, p)``, evaluated elementwise.

    Parameters
    ----------
    d : int
        Degrees of freedom, >= 1.
    p : float or array
        Probabilities, each in the open interval (0, 1).

    Returns
    -------
    float or ndarray
        A float for a scalar ``p``, otherwise an array of ``p``'s shape.
    """
    if d < 1:
        raise InvalidInputError(f"dof must be >= 1, got {d}")
    arr = np.asarray(p, dtype=float)
    ok = (arr > 0.0) & (arr < 1.0)  # False for NaN
    if not ok.all():
        raise InvalidInputError(
            f"quantile level must be in (0, 1), got {arr[~ok][0]}"
        )
    q = 2.0 * gammaincinv(d / 2.0, arr)
    return float(q) if q.ndim == 0 else q


def _vdw_j(d, r):
    # J(0) = 0; the positive ranks go through the quantile in one call
    q = np.zeros_like(r)
    pos = r > 0.0
    q[pos] = chi_sq_quantile(d, r[pos])
    return np.sqrt(q)


@dataclass(frozen=True)
class ScoreFunction:
    """A spherical score: scalar J on [0, 1) applied along the sign.

    Build through :func:`sign_score`, :func:`wilcoxon_score`,
    :func:`van_der_waerden_score`, or :func:`custom_score`.  A score
    keeps J at the whole ranks of the last rank divisor it was read at
    (see :meth:`vector_scores`).
    """

    kind: str
    d: int | None = None
    fn: Callable | None = field(default=None, repr=False)
    norm_sq_value: float | None = None
    # one slot holding (n_r, J(k/(n_r+1)) for k = 1..n_r) of the last
    # whole ranks read; a score made by dataclasses.replace starts empty
    _levels: list = field(
        default_factory=lambda: [None], init=False, compare=False, repr=False
    )

    def evaluate(self, r):
        """J at normalized ranks ``r`` (scalar or array) in [0, 1)."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0) or np.any(arr >= 1.0):
            raise InvalidInputError("normalized ranks must lie in [0, 1)")
        if self.kind == "sign":
            out = np.ones_like(arr)
        elif self.kind == "wilcoxon":
            out = arr.copy()
        elif self.kind == "vdw":
            if np.any(arr > VDW_CLAMP):
                warnings.warn(
                    "normalized rank clamped to 1 - 1e-12 for the van der "
                    "Waerden score",
                    stacklevel=2,
                )
                arr = np.minimum(arr, VDW_CLAMP)
            out = _vdw_j(self.d, arr)
        else:
            out = np.asarray(self.fn(arr), dtype=float)
            if out.ndim == 0:  # a constant J
                out = np.full_like(arr, out)
            elif out.shape != arr.shape:
                raise InvalidScoreError(
                    f"score returned shape {out.shape} for ranks of shape {arr.shape}"
                )
            if not np.isfinite(out).all():
                raise InvalidScoreError("score returned non-finite values")
        return out if np.ndim(r) else float(out)

    def norm_sq(self):
        """Integral of J^2 over [0, 1]."""
        return self.norm_sq_value

    def vector_scores(self, rs):
        """Per-observation vector scores ``J(rank/(n_r+1)) * sign``, (..., n, d).

        Ranks that are all whole numbers in 1..n_r, as elliptical ranks
        (a permutation of 1..n) always are, are read from J evaluated
        once at ``k/(n_r+1)``, k = 1..n_r, and kept for the last n_r
        met.  Other ranks (0 or 1/2 on a grid) are evaluated directly.
        Both give the same values.  Concurrent callers can at worst
        evaluate J more than once.
        """
        rank = rs.rank
        if not (rank.size and rank.min() >= 1 and rank.max() <= rs.n_r
                and (rank == np.floor(rank)).all()):
            return np.asarray(self.evaluate(rank / rs.rank_divisor))[..., None] * rs.sign
        entry = self._levels[0]
        if entry is None or entry[0] != rs.n_r:
            whole = np.arange(1.0, rs.n_r + 1.0)
            entry = (rs.n_r, self.evaluate(whole / rs.rank_divisor))
            self._levels[0] = entry
        return entry[1][rank.astype(np.intp) - 1][..., None] * rs.sign

    def score_cov(self, d):
        """Score covariance; spherical scores give ``(norm_sq/d) * I``."""
        return (self.norm_sq() / d) * np.eye(d)


def sign_score():
    """Pure sign test score, J = 1."""
    return ScoreFunction(kind="sign", norm_sq_value=1.0)


def wilcoxon_score():
    """Linear rank score, J(r) = r."""
    return ScoreFunction(kind="wilcoxon", norm_sq_value=1.0 / 3.0)


def van_der_waerden_score(d):
    """Gaussian quantile score for dimension d, J(r) = sqrt(Q_d(r))."""
    if d < 1:
        raise InvalidInputError(f"dof must be >= 1, got {d}")
    return ScoreFunction(kind="vdw", d=int(d), norm_sq_value=float(d))


def custom_score(fn, norm_sq=None):
    """Wrap a user J; the squared norm is integrated if not supplied.

    Raises
    ------
    InvalidScoreError
        If the quadrature diverges or the squared norm is not a
        positive finite number.
    """
    if norm_sq is None:
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                norm_sq, abserr = quad(
                    lambda r: float(fn(r)) ** 2, 0.0, 1.0, epsabs=0.0,
                    epsrel=1e-10, limit=200,
                )
            except (IntegrationWarning, OverflowError, ZeroDivisionError) as err:
                raise InvalidScoreError(
                    f"squared-norm quadrature failed: {err}"
                ) from err
        if not np.isfinite(norm_sq) or abserr > 1e-8 * max(abs(norm_sq), 1.0):
            raise InvalidScoreError("score has no finite squared norm")
    if not np.isfinite(norm_sq) or norm_sq <= 0:
        raise InvalidScoreError(f"squared norm must be positive, got {norm_sq}")
    return ScoreFunction(kind="custom", fn=fn, norm_sq_value=float(norm_sq))


@dataclass(frozen=True)
class VectorScore:
    """A general (possibly non-spherical) score on ball points.

    Parameters
    ----------
    fn : callable
        Maps an (n, d) array of ball points to an (n, d) array of score
        vectors.
    cov : (d, d) array, optional
        Integral of the score outer product over the uniform ball
        distribution.  When omitted, tests estimate it by averaging the
        outer products over the gridpoints (see
        :func:`estimate_score_cov`).
    """

    fn: Callable = field(repr=False)
    cov: np.ndarray | None = None

    def vector_scores(self, rs):
        # fn maps ball points row by row, so a stack of draws is one call
        pts = (rs.rank / rs.rank_divisor)[..., None] * rs.sign
        flat = pts.reshape(-1, pts.shape[-1])
        out = np.asarray(self.fn(flat), dtype=float)
        if out.shape != flat.shape:
            raise InvalidScoreError(
                f"vector score returned shape {out.shape}, expected {flat.shape}"
            )
        if not np.isfinite(out).all():
            raise InvalidScoreError("vector score returned non-finite values")
        return out.reshape(pts.shape)

    def score_cov(self, d, grid=None):
        if self.cov is not None:
            cov = np.asarray(self.cov, dtype=float)
            if cov.shape != (d, d):
                raise InvalidScoreError(
                    f"score covariance must be {d}x{d}, got {cov.shape}"
                )
            return cov
        if grid is None:
            raise InvalidScoreError(
                "vector score has no covariance and no grid to estimate it from"
            )
        return estimate_score_cov(self.fn, grid)


def estimate_score_cov(fn, grid):
    """Average outer product of the score over the gridpoints.

    The grid discretizes the uniform ball distribution, so this is a
    quadrature estimate of the score covariance.
    """
    vals = np.asarray(fn(grid.points), dtype=float)
    return vals.T @ vals / vals.shape[0]


# score name -> factory taking the dimension; the names get_score accepts
SCORES = {
    "sign": lambda d: sign_score(),
    "wilcoxon": lambda d: wilcoxon_score(),
    "vdw": lambda d: van_der_waerden_score(d),
}


def get_score(name, d):
    """Resolve a score by name ("sign", "wilcoxon", "vdw") for dimension d."""
    if isinstance(name, (ScoreFunction, VectorScore)):
        return name
    try:
        make = SCORES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise InvalidScoreError(
            f"unknown score {name!r}; expected one of {sorted(SCORES)}"
        ) from None
    return make(d)
