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
(``_hotelling``, ``_pillai``, ``_elliptical``, ``_sphericized``) run on
the pooled sample as a one-draw stack; a power study runs the same body
once on a ``(B, n, d)`` stack of checked draws, and the command line
after that same check.  A body returns ``(result, errors)`` as
``rank_tests.co_test`` does: a draw it cannot handle, such as one with
a singular scatter matrix, fails alone.  The public single-sample
helpers check their sample and call the same estimators as the bodies,
which skip those checks.
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
    _failed,
    _outcome,
    _scale_exponent,
    co_test,
    group_design,
    k_sample_statistic,
    one_draw,
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


def _gram(a):
    """``a' a`` of each (n, d) matrix in a stack."""
    return np.swapaxes(a, -1, -2) @ a


def _singular(w, tol):
    """The draws whose ascending eigenvalues ``w`` (..., d) are numerically singular."""
    return (w[..., 0] < tol * np.maximum(w[..., -1], 1e-300)) | (w[..., -1] <= 0)


def _sample_covariance(z):
    # of each (n, d) sample in a stack; np.mean's value, without its fixed
    # cost of about 1 us per call
    n = z.shape[-2]
    loc = z.sum(axis=-2) / n
    mat = _gram(z - loc[..., None, :]) / (n - 1)
    return ScatterEstimate(matrix=mat, location=loc, kind="sample")


def sample_covariance(z):
    """Mean and unbiased covariance.  Singularity is rejected downstream.

    Raises
    ------
    InvalidInputError
        If the covariance is too large to represent (entries beyond
        about 1e308, a sample near 1e154 or more in scale), or so small
        that a positive variance underflows (a sample near 1e-154).
    """
    z, k = _as_sample(z)
    est = _sample_covariance(z)
    with np.errstate(over="ignore"):  # k = 0 leaves every value as it is
        mat = np.ldexp(est.matrix, 2 * k)
    if not np.isfinite(mat).all():
        raise InvalidInputError(
            "sample is too large in scale: its covariance overflows"
        )
    var = np.diag(mat)
    if k < 0 and np.any((var < np.finfo(float).tiny) & (np.diag(est.matrix) > 0)):
        raise InvalidInputError(
            "sample is too small in scale: its covariance underflows"
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


def _tylers(z, errors):
    """Tyler's scatter of each sample in a stack, iterated draw by draw.

    A draw whose iteration raises is recorded in ``errors`` and given
    the identity at the origin, which the later steps pass over.
    """
    count, _, d = z.shape
    matrix = np.tile(np.eye(d), (count, 1, 1))
    location = np.zeros((count, d))
    for k, sample in enumerate(z):
        try:
            est = _tyler(sample)
        except Exception as err:  # the draw fails alone
            errors[k] = err
        else:
            matrix[k], location[k] = est.matrix, est.location
    return ScatterEstimate(matrix=matrix, location=location, kind="tyler")


# scatter name -> estimator on a stack of samples that validate_groups has
# checked, recording in errors the draws it fails on; the names
# sphericized_center_outward_test accepts
SCATTERS = {
    "sample": lambda z, errors: _sample_covariance(z),
    "tyler": _tylers,
}


def _sphericize(z, matrix, location, root, errors):
    """Each sample of a ``(B, n, d)`` stack standardized by its own scatter.

    A draw whose matrix is singular or, for the Cholesky root, not
    positive definite is added to ``errors``.  The rows of a draw in
    ``errors`` come back in no particular frame.
    """
    diffs = z - location[:, None, :]
    if root == "cholesky":
        for k in range(len(z)):
            if k in errors:
                continue
            try:
                low = np.linalg.cholesky(matrix[k])
            except np.linalg.LinAlgError as err:
                errors[k] = DegenerateInputError(
                    f"scatter matrix not positive definite: {err}")
                continue
            # L x = diffs' solved as U' x = diffs' with U = low.T, the Fortran
            # view scipy.linalg.solve_triangular passes LAPACK for a C-ordered
            # factor, so z is the same to the bit; the inputs are finite, and
            # diffs is this call's own scratch to overwrite
            x, info = dtrtrs(low.T, diffs[k].T, lower=0, trans=1, overwrite_b=1)
            if info != 0:
                errors[k] = DegenerateInputError(
                    f"triangular solve failed (LAPACK info {info})")
            diffs[k] = x.T
        return diffs
    w, u = np.linalg.eigh(matrix)
    bad = _singular(w, 1e-10)
    if bad.any():
        _failed(errors, bad, lambda k: DegenerateInputError(
            f"scatter matrix is numerically singular (eigenvalues {w[k]})"))
        w = np.where(bad[:, None], 1.0, w)
    return diffs @ ((u / np.sqrt(w)[:, None, :]) @ np.swapaxes(u, -1, -2))


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
    errors = {}
    x = _sphericize(z[None], matrix[None], np.ldexp(location, -k)[None], root, errors)
    if errors:
        raise errors[0]
    return np.ldexp(x[0], k)


def _elliptical_ranks_signs(z_ell, errors):
    # of each sample in a (B, n, d) stack; a draw with a zero row fails alone
    moduli = np.sqrt((z_ell * z_ell).sum(axis=-1))  # np.linalg.norm's rows
    zero = moduli < 1e-300
    n = z_ell.shape[-2]
    ranks = np.empty(moduli.shape)
    np.put_along_axis(ranks, np.argsort(moduli, axis=-1, kind="stable"),
                      np.arange(1.0, n + 1.0), axis=-1)
    if zero.any():
        _failed(errors, zero.any(axis=-1),
                lambda k: DegenerateInputError("zero residual has no direction"))
        moduli = np.where(zero, 1.0, moduli)
    return RanksSigns(rank=ranks, sign=z_ell / moduli[..., None], n_r=n)


def elliptical_ranks_signs(z_ell):
    """Ranks of the moduli (ties by input order) and unit directions.

    Returned in the shared rank container with ``n_r = n``, so the
    normalized ranks are ``R/(n+1)``.  Neither depends on the sample's
    scale, so a sample far from unit scale is brought back by an exact
    power of two first.
    """
    errors = {}
    rs = _elliptical_ranks_signs(_as_sample(z_ell)[0][None], errors)
    if errors:
        raise errors[0]
    return RanksSigns(rank=rs.rank[0], sign=rs.sign[0], n_r=rs.n_r)


def _elliptical(pooled, sizes, score):
    count, n, d = pooled.shape
    score = get_score(score, d)
    est = _sample_covariance(pooled)
    errors = {}
    z = _sphericize(pooled, est.matrix, est.location, "symmetric", errors)
    rs = _elliptical_ranks_signs(z, errors)
    if len(errors) == count:  # no draw left: its own error, not the score's, is reported
        return None, errors
    stat = k_sample_statistic(rs, sizes, score)
    dof = (len(sizes) - 1) * d
    method = "elliptical-two-sample" if len(sizes) == 2 else "elliptical-manova"
    return _outcome(TestResult(
        method=method,
        statistic=stat,
        dof=dof,
        p_value=chi_sq_sf(dof, stat),
        n=n,
        d=d,
        score=getattr(score, "kind", "vector"),
    ), errors)


def elliptical_rank_test(samples, score="wilcoxon"):
    """K-group location test from elliptical ranks and signs.

    Pooled data is sphericized by its sample covariance; the moduli
    ranks and directions then feed the same standardized linear rank
    statistic as the center-outward tests (chi-square, (K-1)*d dof).
    """
    pooled, sizes = validate_groups(samples)
    return one_draw(_elliptical(pooled[None], sizes, score))


def _sphericized(pooled, sizes, score, scatter, grid):
    errors = {}
    est = SCATTERS[scatter](pooled, errors)
    z = _sphericize(pooled, est.matrix, est.location, "cholesky", errors)
    method = (
        "co-sphericized-two-sample" if len(sizes) == 2 else "co-sphericized-manova"
    )
    return co_test(method, z, group_design(sizes), score, grid, errors)


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
    return one_draw(_sphericized(pooled[None], sizes, score, scatter, grid))


def _f_sf(x, df1, df2):
    # F upper tail via the regularized incomplete beta, elementwise
    return np.where(x <= 0, 1.0, betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x)))


def hotelling_two_sample(sample1, sample2):
    """Two-sample Hotelling T^2 with its exact-normal F reference.

    ``T^2 = (n1 n2 / n) (xbar1 - xbar2)' S_pooled^{-1} (xbar1 - xbar2)``
    reported through ``F = T^2 (n - 1 - d) / ((n - 2) d)`` on
    ``(d, n - 1 - d)`` degrees of freedom.
    """
    pooled, sizes = validate_groups([sample1, sample2])
    return one_draw(_hotelling(pooled[None], sizes))


def _hotelling(pooled, sizes):
    n1, n2 = sizes
    _, n, d = pooled.shape
    if n - 1 - d < 1:
        raise InvalidInputError(
            f"Hotelling needs n >= d + 2, got n={n}, d={d}"
        )
    x, y = pooled[:, :n1], pooled[:, n1:]
    mean_x = x.sum(axis=1) / n1  # np.mean's values, as in _sample_covariance
    mean_y = y.sum(axis=1) / n2
    cov = (_gram(x - mean_x[:, None]) + _gram(y - mean_y[:, None])) / (n - 2)
    errors = {}
    bad = _singular(np.linalg.eigvalsh(cov), 1e-12)
    if bad.any():
        _failed(errors, bad, lambda k: DegenerateInputError(
            "pooled covariance is singular"))
        cov[bad] = np.eye(d)
    diff = mean_x - mean_y
    # (n1 n2 / n) diff, dotted with the solve as a vector @ vector
    t_sq = ((n1 * n2 / n * diff)[:, None, :]
            @ np.linalg.solve(cov, diff[:, :, None]))[:, 0, 0]
    f_stat = t_sq * (n - 1 - d) / ((n - 2) * d)
    dof = (d, n - 1 - d)
    return _outcome(TestResult(
        method="hotelling",
        statistic=t_sq,
        dof=dof,
        p_value=_f_sf(f_stat, *dof),
        null_dist="f",
        n=n,
        d=d,
    ), errors)


def pillai_manova(samples):
    """Pillai's trace with the standard F approximation.

    ``V = trace(H (H + E)^{-1})`` from the between- and within-group
    SSCP matrices.
    """
    pooled, sizes = validate_groups(samples)
    return one_draw(_pillai(pooled[None], sizes))


def _pillai(pooled, sizes):
    count, n, d = pooled.shape
    k = len(sizes)
    if n - k - d - 1 < 0:
        raise InvalidInputError(
            f"Pillai needs n >= K + d + 1, got n={n}, K={k}, d={d}"
        )
    grand = pooled.mean(axis=1)
    h = np.zeros((count, d, d))
    e = np.zeros((count, d, d))
    for start, n_k in zip(accumulate(sizes, initial=0), sizes):
        group = pooled[:, start : start + n_k]
        mean_k = group.mean(axis=1)
        dev = (mean_k - grand)[:, :, None]
        h += n_k * (dev @ np.swapaxes(dev, -1, -2))
        e += _gram(group - mean_k[:, None])
    total = h + e
    errors = {}
    bad = _singular(np.linalg.eigvalsh(total), 1e-12)
    if bad.any():
        _failed(errors, bad, lambda k: DegenerateInputError(
            "total SSCP matrix is singular"))
        total[bad] = np.eye(d)
    v = np.trace(np.linalg.solve(total, h), axis1=-2, axis2=-1)
    s = min(d, k - 1)
    m_par = (abs(d - k + 1) - 1) / 2.0
    n_par = (n - k - d - 1) / 2.0
    df1 = int(round(s * (2 * m_par + s + 1)))
    df2 = int(round(s * (2 * n_par + s + 1)))
    with np.errstate(divide="ignore"):  # v = s is taken as inf
        f_stat = np.where(s > v, (df2 / df1) * (v / (s - v)), np.inf)
    return _outcome(TestResult(
        method="pillai",
        statistic=v,
        dof=(df1, df2),
        p_value=_f_sf(f_stat, df1, df2),
        null_dist="f",
        n=n,
        d=d,
    ), errors)
