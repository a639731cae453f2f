"""Center-outward linear rank statistics and chi-square tests.

Everything here reduces to one construction: standardize the covariates
(two-sample and MANOVA problems are dummy-coded designs), form the
(m x d) linear rank statistic

    lambda = (1/n) sum_i K_n' (c_i - c_bar) v_i'

from per-observation vector scores v_i, and norm it into a quadratic
form with a chi-square(m*d) null.  ``K_n`` is the symmetric inverse
square root of the covariate second-moment matrix, so the statistic
depends on it only through that matrix.

The two-sample and MANOVA tests are the regression test on the
dummy-coded design of the groups, so every center-outward test runs
the same body, ``co_test``.  A body takes a ``(B, n, d)`` stack of
draws, so that a power study runs it once per block of replications; a
public test runs it on a one-draw stack and reads off that draw with
``one_draw``.  The statistic is a pure function of the assignment,
hence exactly distribution-free under the null: each observation's
vector score is the row of the grid's own score table
(:meth:`~corank.sphere_grid.Grid.score_table`) that the assignment picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

# ranks_signs is not called here, but the benchmark's tracer
# (perfbench/tracing.py) binds this module's name for it
from .center_outward import empirical_map, ranks_signs  # noqa: F401
from .errors import (
    DegenerateDesignError,
    InvalidInputError,
    InvalidScoreError,
)
from .scores import ScoreFunction, chi_sq_sf, get_score
from .sphere_grid import GridSpec, build_grid, make_spec

# validate_groups rescales, exactly by a power of two, a pooled sample whose
# largest |coordinate| lies outside [2^-400, 2^400]: inside, the centred
# data's squares and their sums stay finite and normal.  Ordinary data never
# leave these bounds, so their bits cannot move.
_SCALE_BITS = 400


def _scale_exponent(top):
    """The k for which ``2^-k`` brings a sample back to ordinary scale.

    ``top`` is the sample's largest |coordinate|, finite.  k is 0 inside
    [2^-400, 2^400] and otherwise puts ``top`` in [1/2, 1).
    """
    if 2.0**-_SCALE_BITS <= top <= 2.0**_SCALE_BITS:
        return 0
    return math.frexp(top)[1]


@dataclass(frozen=True)
class CovariateDesign:
    """A standardized covariate matrix.

    Attributes
    ----------
    c : (n, m) ndarray
        Covariates as given.
    c_bar : (m,) ndarray
        Column means.
    v_c : (m, m) ndarray
        Second-moment matrix of the centered covariates, ``Cc'Cc / n``.
    k_n : (m, m) ndarray
        Symmetric inverse square root of ``v_c``.

    The standardized covariates ``(c - c_bar) K_n``, which every
    statistic on the design reads, are formed once, when it is made.
    """

    c: np.ndarray
    c_bar: np.ndarray
    v_c: np.ndarray
    k_n: np.ndarray
    _standardized: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_standardized", (self.c - self.c_bar) @ self.k_n)

    @property
    def n(self):
        return self.c.shape[0]

    @property
    def m(self):
        return self.c.shape[1]


@dataclass(frozen=True)
class TestResult:
    """Outcome of a test: statistic, reference law, and provenance."""

    method: str
    statistic: float
    dof: int | tuple
    p_value: float
    null_dist: str = "chi2"
    n: int | None = None
    d: int | None = None
    score: str | None = None
    grid_spec: GridSpec | None = None
    seed: int | None = None

    def to_dict(self):
        """Flatten to the JSON schema used by the command line tool."""
        gs = self.grid_spec
        dof = list(self.dof) if isinstance(self.dof, tuple) else self.dof
        return {
            "method": self.method,
            "statistic": self.statistic,
            "dof": dof,
            "p_value": self.p_value,
            "null_dist": self.null_dist,
            "n": self.n,
            "d": self.d,
            "n_R": gs.n_r if gs else None,
            "n_S": gs.n_s if gs else None,
            "n_0": gs.n_0 if gs else None,
            "score": self.score,
            "seed": self.seed,
        }


def residuals(y, c, beta0=None):
    """Null-hypothesis residuals ``Z = Y - C beta0``.

    ``beta0`` defaults to the zero matrix.  No intercept is needed or
    allowed: the statistic centres the covariates (a constant column
    raises :class:`DegenerateDesignError`), and a common shift of the
    responses leaves the center-outward ranks and signs unchanged.
    """
    y = np.asarray(y, dtype=float)
    c = np.asarray(c, dtype=float)
    if y.ndim != 2 or c.ndim != 2:
        raise InvalidInputError("responses and covariates must be 2-d arrays")
    n, d = y.shape
    if c.shape[0] != n:
        raise InvalidInputError(
            f"covariates have {c.shape[0]} rows, responses have {n}"
        )
    if c.shape[1] < 1:
        raise InvalidInputError("need at least one covariate column")
    if beta0 is None:
        return y.copy()
    beta0 = np.asarray(beta0, dtype=float)
    if beta0.shape != (c.shape[1], d):
        raise InvalidInputError(
            f"beta0 must be {c.shape[1]}x{d}, got {beta0.shape}"
        )
    if not np.isfinite(beta0).all():
        raise InvalidInputError("beta0 has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        z = y - c @ beta0
    # non-finite responses or covariates are reported where they are checked
    if not np.isfinite(z).all() and np.isfinite(y).all() and np.isfinite(c).all():
        raise InvalidInputError("beta0 is too large: y - c @ beta0 overflows")
    return z


def standardize_design(c):
    """Center covariates and compute the inverse-root standardizer.

    Raises
    ------
    DegenerateDesignError
        If a column is constant (centring makes it zero), or if the
        centered second-moment matrix is numerically singular (smallest
        eigenvalue below 1e-10 times the largest).
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        raise InvalidInputError(f"covariates must be 2-d, got shape {c.shape}")
    n, m = c.shape
    if m < 1 or n <= m:
        raise InvalidInputError(f"need n > m >= 1, got n={n}, m={m}")
    if not np.isfinite(c).all():
        raise InvalidInputError("covariates have non-finite entries")
    constant = np.flatnonzero((c == c[0]).all(axis=0))
    if constant.size:
        raise DegenerateDesignError(
            f"covariate column(s) {constant.tolist()} are constant; drop them "
            "(an intercept is not needed, the design is centred)"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        c_bar = c.mean(axis=0)
        centered = c - c_bar
        v_c = centered.T @ centered / n
    if not np.isfinite(v_c).all():
        raise InvalidInputError(
            "covariates are too large in scale: their second moments overflow"
        )
    w, u = np.linalg.eigh(v_c)
    if w[0] < 1e-10 * w[-1] or w[-1] <= 0.0:
        raise DegenerateDesignError(
            f"covariate second-moment matrix is singular (eigenvalues {w})"
        )
    k_n = (u / np.sqrt(w)) @ u.T
    return CovariateDesign(c=c, c_bar=c_bar, v_c=v_c, k_n=k_n)


def lambda_tilde(design, rs, score):
    """Linear rank statistic, an (m, d) matrix.

    ``(1/n) sum_i K_n'(c_i - c_bar) v_i'`` with ``v_i`` the vector score
    of observation ``i``.
    """
    return _lambda(design, score.vector_scores(rs))


def _lambda(design, v):
    # v may carry leading stack axes, one (n, d) block of scores per draw
    if v.shape[-2] != design.n:
        raise InvalidInputError(
            f"design has {design.n} rows but ranks cover {v.shape[-2]} observations"
        )
    return design._standardized.T @ v / design.n


def _float_or_array(q):
    return float(q) if q.ndim == 0 else q


def q_general(lam, score_cov, n):
    """Quadratic form for a general score covariance.

    ``n * vec(lam)' (cov^{-1} kron I_m) vec(lam)``, equal to
    ``n * trace(cov^{-1} lam' lam)``.  A ``lam`` with leading stack axes
    gives an array of forms, one per (m, d) matrix.
    """
    lam = np.asarray(lam, dtype=float)
    cov = np.asarray(score_cov, dtype=float)
    d = lam.shape[-1]
    if cov.shape != (d, d):
        raise InvalidScoreError(f"score covariance must be {d}x{d}, got {cov.shape}")
    # eigvalsh reads one triangle and solve the whole matrix: they must agree
    scale = np.abs(cov).max()
    if not np.isfinite(scale) or np.abs(cov - cov.T).max() > 1e-12 * scale:
        raise InvalidScoreError("score covariance must be finite and symmetric")
    w = np.linalg.eigvalsh(cov)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise InvalidScoreError("score covariance is singular")
    gram = np.linalg.solve(cov, np.swapaxes(lam, -1, -2) @ lam)
    return _float_or_array(n * np.trace(gram, axis1=-2, axis2=-1))


def q_spherical(lam, score, d, n):
    """Quadratic form for spherical scores: ``(n d / |J|^2) ||lam||_F^2``.

    A ``lam`` with leading stack axes gives an array of forms.
    """
    lam = np.asarray(lam, dtype=float)
    return _float_or_array(n * d / score.norm_sq() * (lam * lam).sum(axis=(-2, -1)))


def _dummy_covariates(sizes):
    return np.repeat(np.eye(len(sizes))[:, :-1], sizes, axis=0)


@lru_cache(maxsize=1)
def group_design(sizes):
    """The standardized dummy-coded design of groups of these sizes.

    ``sizes`` is a tuple.  The design of the last tuple used is kept
    and shared by every caller, so its arrays are read-only.
    """
    design = standardize_design(_dummy_covariates(sizes))
    for a in (design.c, design.c_bar, design.v_c, design.k_n, design._standardized):
        a.setflags(write=False)
    return design


def _quadratic_form(design, v, score, cov):
    """The statistic from per-observation vector scores ``v``.

    ``cov`` is None for a spherical score, else the score covariance.
    """
    lam = _lambda(design, v)
    n, d = v.shape[-2:]
    if cov is None:
        return q_spherical(lam, score, d, n)
    return q_general(lam, cov, n)


def k_sample_statistic(rs, sizes, score):
    """Statistic for a K-group comparison from pooled ranks and signs.

    The regression statistic on the dummy-coded design of the groups.
    Baselines reuse this with their own rank containers, whose ranks
    and signs may carry a leading stack axis, one statistic per draw.
    There is no grid to estimate a covariance on, so a VectorScore must
    carry its own.
    """
    v = score.vector_scores(rs)
    cov = None if isinstance(score, ScoreFunction) else score.score_cov(rs.d)
    return _quadratic_form(group_design(tuple(sizes)), v, score, cov)


def validate_groups(samples):
    """Check K >= 2 finite 2-d groups of equal width; return (pooled, sizes)."""
    arrays = [np.asarray(s, dtype=float) for s in samples]
    if len(arrays) < 2:
        raise InvalidInputError(f"need at least 2 groups, got {len(arrays)}")
    for k, a in enumerate(arrays):
        if a.ndim != 2 or a.shape[1] == 0:
            raise InvalidInputError(f"group {k} must be a 2-d array with columns")
        if a.shape[0] < 2:
            raise InvalidInputError(f"group {k} has fewer than 2 observations")
        if a.shape[1] != arrays[0].shape[1]:
            raise InvalidInputError(
                f"group {k} has {a.shape[1]} columns, expected {arrays[0].shape[1]}"
            )
    pooled = np.vstack(arrays)
    top = float(np.abs(pooled).max())
    if not math.isfinite(top):
        for k, a in enumerate(arrays):
            bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
            if bad.size:
                raise InvalidInputError(f"group {k} row {bad[0]} is not finite")
    k = _scale_exponent(top)
    if k:
        np.ldexp(pooled, -k, out=pooled)
    return pooled, tuple(a.shape[0] for a in arrays)


def _failed(errors, bad, error):
    """Record ``error(k)`` for each draw k flagged in ``bad`` not failed yet."""
    for k in np.flatnonzero(bad):
        errors.setdefault(int(k), error(k))


def _outcome(result, errors):
    """A body's return: its result over the stack, NaN at the failed draws.

    The statistic and p-value arrays are the body's own, set in place.
    """
    failed = list(errors)
    result.statistic[failed] = result.p_value[failed] = np.nan
    return result, errors


def one_draw(outcome):
    """The TestResult of a test body run on a one-draw stack.

    ``outcome`` is the body's ``(result, errors)``; the draw's error,
    if it failed, is raised.
    """
    result, errors = outcome
    if errors:
        raise errors[0]
    return replace(result, statistic=float(result.statistic[0]),
                   p_value=float(result.p_value[0]))


def co_test(method, z, design, score, grid, errors=None):
    """The one center-outward test body; every test reports through it.

    Assigns each (n, d) sample of the ``(B, n, d)`` stack ``z``, in
    stack order, to ``grid`` (by default the balanced symmetrized grid
    for its shape), reads each observation's vector score from the
    grid's table, and forms the chi-square test of the standardized
    ``design`` for every draw at once.  ``errors`` maps a draw that
    failed before the test, which it skips, to its exception; a draw
    whose assignment raises is added to it.

    Returns ``(result, errors)``: a :class:`TestResult` named
    ``method`` whose statistic and p-value are (B,) arrays, NaN at the
    failed draws (None when every draw failed), and the errors.
    """
    count, n, d = z.shape
    score = get_score(score, d)
    if grid is None:
        grid = build_grid(make_spec(n, d, symmetrize=True))
    errors = {} if errors is None else errors
    assignment = np.zeros((count, n), dtype=np.intp)
    for k, sample in enumerate(z):
        if k not in errors:
            try:
                assignment[k] = empirical_map(sample, grid).assignment
            except Exception as err:  # the draw fails alone
                errors[k] = err
    if len(errors) == count:  # no draw left: its own error, not the score's, is reported
        return None, errors
    table, cov = grid.score_table(score)
    stat = _quadratic_form(design, table[assignment], score, cov)
    dof = design.m * d
    return _outcome(TestResult(
        method=method,
        statistic=stat,
        dof=dof,
        p_value=chi_sq_sf(dof, stat),
        n=n,
        d=d,
        score=getattr(score, "kind", "vector"),
        grid_spec=grid.spec,
        seed=grid.tie_break_seed,
    ), errors)


def _groups_test(method, samples, score, grid):
    pooled, sizes = validate_groups(samples)
    return one_draw(co_test(method, pooled[None], group_design(sizes), score, grid))


def two_sample_test(sample1, sample2, score="wilcoxon", *, grid=None):
    """Center-outward two-sample location test.

    Parameters
    ----------
    sample1, sample2 : (n_k, d) arrays
        The two groups, each with at least 2 observations, d >= 2.
    score : str or ScoreFunction or VectorScore
        "sign", "wilcoxon" (default), "vdw", or a score object.
    grid : Grid, optional
        Grid for the pooled sample.  By default the balanced
        symmetrized grid ``build_grid(make_spec(n, d, symmetrize=True))``;
        build another with :func:`~corank.sphere_grid.make_spec` and
        :func:`~corank.sphere_grid.build_grid`.

    Returns
    -------
    TestResult
        Chi-square statistic with d degrees of freedom.
    """
    return _groups_test("co-two-sample", [sample1, sample2], score, grid)


def manova_test(samples, score="wilcoxon", *, grid=None):
    """Center-outward K-group location test (MANOVA analogue).

    Same conventions as :func:`two_sample_test`; ``samples`` is a
    sequence of K >= 2 groups and the statistic has (K-1)*d degrees of
    freedom.  With K = 2 this is exactly the two-sample test.  It is
    :func:`regression_test` on the dummy-coded design of the groups.
    """
    return _groups_test("co-manova", samples, score, grid)


def regression_test(y, c, beta0=None, score="wilcoxon", *, grid=None):
    """Test H0: beta = beta0 in the multiple-output linear model.

    Computes center-outward ranks and signs of the null residuals
    ``Y - C beta0`` and forms the quadratic form of the standardized
    linear rank statistic, chi-square with m*d degrees of freedom under
    the null.

    Parameters
    ----------
    y : (n, d) array
        Responses, d >= 2.
    c : (n, m) array
        Covariates, m >= 1, none of them constant.  Do not add an
        intercept column: the covariates are centred, and a common
        shift of ``y`` leaves the statistic unchanged.
    beta0 : (m, d) array, optional
        Hypothesized coefficients; zero matrix by default.
    score, grid
        As in :func:`two_sample_test`.

    Returns
    -------
    TestResult
    """
    z = residuals(y, c, beta0)
    # an unknown score is reported before a degenerate design
    score = get_score(score, z.shape[1])
    design = standardize_design(c)
    return one_draw(co_test("co-regression", z[None], design, score, grid))
