"""Classical and elliptical-rank baselines.

Three families, kept deliberately close to the textbook forms so the
center-outward tests have honest competitors:

* Hotelling T^2 and Pillai's trace with their F reference laws;
* elliptical (Mahalanobis) rank tests: sphericize the pooled data,
  rank the moduli, keep the directions, and reuse the same linear
  rank statistic machinery with divisor n+1;
* a sphericized variant of the center-outward tests that standardizes
  the data before assigning it to the grid.

Sphericization uses the symmetric inverse root by default.  The
sphericized center-outward test uses the Cholesky root instead: the
symmetric root leaves a data-dependent orthogonal factor behind, and
with a fixed grid only the Cholesky choice makes the statistic exactly
invariant under shifts and positive-diagonal triangular rescalings.

Each K-group test is ``rank_tests.validate_groups`` followed by a body
on the pooled sample (``_hotelling``, ``_pillai``, ``_elliptical``,
``_sphericized``), which a power study and the command line run after
that same check.  The public single-sample helpers check their sample
and call the same estimators as the bodies, which skip those checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import betainc

from .center_outward import RanksSigns
from .errors import (
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
)
from .rank_tests import (
    TestResult,
    _scale_exponent,
    co_test,
    group_design,
    k_sample_statistic,
    validate_groups,
)
from .scores import chi_sq_sf, get_score

TYLER_TOL = 1e-9
TYLER_MAX_ITER = 500


@dataclass(frozen=True)
class ScatterEstimate:
    """A location vector and scatter matrix estimated from data."""

    matrix: np.ndarray
    location: np.ndarray
    kind: str


def _as_sample(z):
    """``z`` checked and times ``2^-k``, and k, as ``validate_groups`` rescales.

    k is 0, and ``z`` returned as given, unless its largest |coordinate|
    lies outside [2^-400, 2^400].
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[0] < 2 or z.shape[1] < 1:
        raise InvalidInputError(
            f"need a 2-d sample with n >= 2 and d >= 1, got shape {z.shape}"
        )
    top = float(np.abs(z).max())
    if not math.isfinite(top):
        raise InvalidInputError("sample has non-finite entries")
    k = _scale_exponent(top)
    return (np.ldexp(z, -k) if k else z), k


def _sample_covariance(z):
    # np.mean's value, without its fixed cost of about 1 us per call
    loc = z.sum(axis=0) / z.shape[0]
    diffs = z - loc
    mat = diffs.T @ diffs / (z.shape[0] - 1)
    return ScatterEstimate(matrix=mat, location=loc, kind="sample")


def sample_covariance(z):
    """Mean and unbiased covariance.  Singularity is rejected downstream.

    Raises
    ------
    InvalidInputError
        If the covariance is too large to represent (entries beyond
        about 1e308, a sample near 1e154 or more in scale).
    """
    z, k = _as_sample(z)
    est = _sample_covariance(z)
    with np.errstate(over="ignore"):  # k = 0 leaves every value as it is
        mat = np.ldexp(est.matrix, 2 * k)
    if not np.isfinite(mat).all():
        raise InvalidInputError(
            "sample is too large in scale: its covariance overflows"
        )
    return replace(est, matrix=mat, location=np.ldexp(est.location, k))


def _tyler(z, location=None):
    n, d = z.shape
    loc = z.mean(axis=0) if location is None else location
    diffs = z - loc
    if np.any(np.linalg.norm(diffs, axis=1) < 1e-300):
        raise DegenerateInputError("an observation equals the Tyler location")
    v = np.eye(d)
    for _ in range(TYLER_MAX_ITER):
        try:
            quad = np.einsum("ij,ji->i", diffs, np.linalg.solve(v, diffs.T))
        except np.linalg.LinAlgError as err:
            raise NumericalError(f"Tyler iteration hit a singular iterate: {err}") from err
        if np.any(quad <= 0):
            raise DegenerateInputError("degenerate configuration in Tyler iteration")
        nxt = (d / n) * (diffs / quad[:, None]).T @ diffs
        nxt *= d / np.trace(nxt)
        if np.abs(nxt - v).max() < TYLER_TOL:
            return ScatterEstimate(matrix=nxt, location=loc, kind="tyler")
        v = nxt
    raise NumericalError(
        f"Tyler iteration did not converge in {TYLER_MAX_ITER} steps"
    )


def tyler_scatter(z, location=None):
    """Tyler's distribution-free M-estimator of scatter.

    Fixed-point iteration from the identity, trace normalized to d at
    every step; converged when successive iterates differ by less than
    ``TYLER_TOL`` in max norm.  The matrix does not depend on the
    sample's scale, so a sample far from unit scale is brought back by
    an exact power of two first.

    Raises
    ------
    InvalidInputError
        If ``location`` is not a finite length-d vector.
    DegenerateInputError
        If some observation coincides with the location.
    NumericalError
        If the iteration has not converged after ``TYLER_MAX_ITER``
        steps.
    """
    z, k = _as_sample(z)
    d = z.shape[1]
    if location is not None:
        location = np.asarray(location, dtype=float)
        if location.shape != (d,) or not np.isfinite(location).all():
            raise InvalidInputError(f"Tyler location must be a finite length-{d} vector")
        location = np.ldexp(location, -k)
    est = _tyler(z, location)
    return replace(est, location=np.ldexp(est.location, k))


# scatter name -> estimator on a sample that validate_groups has checked;
# the names sphericized_center_outward_test accepts
SCATTERS = {"sample": _sample_covariance, "tyler": _tyler}


def _sphericize(z, matrix, location, root):
    diffs = z - location
    if root == "cholesky":
        try:
            low = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError as err:
            raise DegenerateInputError(f"scatter matrix not positive definite: {err}") from err
        # L x = diffs' solved as U' x = diffs' with U = low.T, the Fortran
        # view scipy.linalg.solve_triangular passes LAPACK for a C-ordered
        # factor, so z is the same to the bit; the inputs are finite, and
        # diffs is this call's own scratch to overwrite
        x, info = dtrtrs(low.T, diffs.T, lower=0, trans=1, overwrite_b=1)
        if info != 0:
            raise DegenerateInputError(f"triangular solve failed (LAPACK info {info})")
        return x.T
    w, u = np.linalg.eigh(matrix)
    if w[0] < 1e-10 * max(w[-1], 1e-300) or w[-1] <= 0:
        raise DegenerateInputError(
            f"scatter matrix is numerically singular (eigenvalues {w})"
        )
    return diffs @ ((u / np.sqrt(w)) @ u.T)


def sphericize(z, scatter, root="symmetric"):
    """Standardize a sample by a scatter estimate.

    ``root="symmetric"`` (default) applies the symmetric inverse square
    root; ``root="cholesky"`` solves against the lower Cholesky factor.
    The result is linear in the sample and its location, so a sample far
    from unit scale is brought back by an exact power of two first, and
    the result scaled back.

    Raises
    ------
    InvalidInputError
        If the scatter matrix or location has a non-finite entry.
    DegenerateInputError
        If the scatter matrix is singular or, for the Cholesky root, not
        positive definite.
    """
    z, k = _as_sample(z)
    if root not in ("symmetric", "cholesky"):
        raise InvalidInputError(f"unknown root {root!r}")
    matrix = np.asarray(scatter.matrix, dtype=float)
    location = np.asarray(scatter.location, dtype=float)
    if not (np.isfinite(matrix).all() and np.isfinite(location).all()):
        raise InvalidInputError("scatter estimate has non-finite entries")
    return np.ldexp(_sphericize(z, matrix, np.ldexp(location, -k), root), k)


def _elliptical_ranks_signs(z_ell):
    moduli = np.sqrt((z_ell * z_ell).sum(axis=1))  # np.linalg.norm's rows
    if np.any(moduli < 1e-300):
        raise DegenerateInputError("zero residual has no direction")
    n = z_ell.shape[0]
    ranks = np.empty(n)
    ranks[np.argsort(moduli, kind="stable")] = np.arange(1.0, n + 1.0)
    return RanksSigns(rank=ranks, sign=z_ell / moduli[:, None], n_r=n)


def elliptical_ranks_signs(z_ell):
    """Ranks of the moduli (ties by input order) and unit directions.

    Returned in the shared rank container with ``n_r = n``, so the
    normalized ranks are ``R/(n+1)``.  Neither depends on the sample's
    scale, so a sample far from unit scale is brought back by an exact
    power of two first.
    """
    return _elliptical_ranks_signs(_as_sample(z_ell)[0])


def _elliptical(pooled, sizes, score):
    n, d = pooled.shape
    score = get_score(score, d)
    est = _sample_covariance(pooled)
    z = _sphericize(pooled, est.matrix, est.location, "symmetric")
    rs = _elliptical_ranks_signs(z)
    stat = k_sample_statistic(rs, sizes, score)
    dof = (len(sizes) - 1) * d
    method = "elliptical-two-sample" if len(sizes) == 2 else "elliptical-manova"
    return TestResult(
        method=method,
        statistic=stat,
        dof=dof,
        p_value=float(chi_sq_sf(dof, stat)),
        n=n,
        d=d,
        score=getattr(score, "kind", "vector"),
    )


def elliptical_rank_test(samples, score="wilcoxon"):
    """K-group location test from elliptical ranks and signs.

    Pooled data is sphericized by its sample covariance; the moduli
    ranks and directions then feed the same standardized linear rank
    statistic as the center-outward tests (chi-square, (K-1)*d dof).
    """
    return _elliptical(*validate_groups(samples), score)


def _sphericized(pooled, sizes, score, scatter, grid):
    est = SCATTERS[scatter](pooled)
    z = _sphericize(pooled, est.matrix, est.location, "cholesky")
    method = (
        "co-sphericized-two-sample" if len(sizes) == 2 else "co-sphericized-manova"
    )
    return co_test(method, z, group_design(sizes), score, grid)


def sphericized_center_outward_test(samples, score="wilcoxon", scatter="sample", *,
                                    grid=None):
    """Center-outward K-group test on standardized data.

    The pooled sample is sphericized (Cholesky root; ``scatter`` is
    "sample" or "tyler") and the usual center-outward test runs on the
    result.  Trades some distribution-freeness for affine invariance.
    ``grid`` means what it means in
    :func:`~corank.rank_tests.two_sample_test`.
    """
    pooled, sizes = validate_groups(samples)
    if scatter not in SCATTERS:
        raise InvalidInputError(
            f"unknown scatter {scatter!r}; expected one of {sorted(SCATTERS)}"
        )
    return _sphericized(pooled, sizes, score, scatter, grid)


def _f_sf(x, df1, df2):
    # F upper tail via the regularized incomplete beta
    if x <= 0:
        return 1.0
    return float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x)))


def hotelling_two_sample(sample1, sample2):
    """Two-sample Hotelling T^2 with its exact-normal F reference.

    ``T^2 = (n1 n2 / n) (xbar1 - xbar2)' S_pooled^{-1} (xbar1 - xbar2)``
    reported through ``F = T^2 (n - 1 - d) / ((n - 2) d)`` on
    ``(d, n - 1 - d)`` degrees of freedom.
    """
    return _hotelling(*validate_groups([sample1, sample2]))


def _hotelling(pooled, sizes):
    n1, n2 = sizes
    n, d = pooled.shape
    if n - 1 - d < 1:
        raise InvalidInputError(
            f"Hotelling needs n >= d + 2, got n={n}, d={d}"
        )
    x, y = pooled[:n1], pooled[n1:]
    mean_x = x.sum(axis=0) / n1  # np.mean's values, as in _sample_covariance
    mean_y = y.sum(axis=0) / n2
    dx = x - mean_x
    dy = y - mean_y
    cov = (dx.T @ dx + dy.T @ dy) / (n - 2)
    w = np.linalg.eigvalsh(cov)
    if w[0] < 1e-12 * max(w[-1], 1e-300) or w[-1] <= 0:
        raise DegenerateInputError("pooled covariance is singular")
    diff = mean_x - mean_y
    t_sq = float(n1 * n2 / n * diff @ np.linalg.solve(cov, diff))
    f_stat = t_sq * (n - 1 - d) / ((n - 2) * d)
    dof = (d, n - 1 - d)
    return TestResult(
        method="hotelling",
        statistic=t_sq,
        dof=dof,
        p_value=_f_sf(f_stat, *dof),
        null_dist="f",
        n=n,
        d=d,
    )


def pillai_manova(samples):
    """Pillai's trace with the standard F approximation.

    ``V = trace(H (H + E)^{-1})`` from the between- and within-group
    SSCP matrices.
    """
    return _pillai(*validate_groups(samples))


def _pillai(pooled, sizes):
    n, d = pooled.shape
    k = len(sizes)
    if n - k - d - 1 < 0:
        raise InvalidInputError(
            f"Pillai needs n >= K + d + 1, got n={n}, K={k}, d={d}"
        )
    grand = pooled.mean(axis=0)
    h = np.zeros((d, d))
    e = np.zeros((d, d))
    for start, n_k in zip(accumulate(sizes, initial=0), sizes):
        group = pooled[start : start + n_k]
        mean_k = group.mean(axis=0)
        dev = (mean_k - grand)[:, None]
        h += n_k * (dev @ dev.T)
        resid = group - mean_k
        e += resid.T @ resid
    total = h + e
    w = np.linalg.eigvalsh(total)
    if w[0] < 1e-12 * max(w[-1], 1e-300) or w[-1] <= 0:
        raise DegenerateInputError("total SSCP matrix is singular")
    v = float(np.trace(np.linalg.solve(total, h)))
    s = min(d, k - 1)
    m_par = (abs(d - k + 1) - 1) / 2.0
    n_par = (n - k - d - 1) / 2.0
    df1 = int(round(s * (2 * m_par + s + 1)))
    df2 = int(round(s * (2 * n_par + s + 1)))
    f_stat = (df2 / df1) * (v / (s - v)) if s > v else np.inf
    return TestResult(
        method="pillai",
        statistic=v,
        dof=(df1, df2),
        p_value=_f_sf(f_stat, df1, df2),
        null_dist="f",
        n=n,
        d=d,
    )
