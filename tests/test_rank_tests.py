"""Linear rank statistics, design standardization, and the chi-square tests."""

import sys
import threading
import warnings

import numpy as np
import pytest
from scipy import stats as sps

import corank
from corank import (
    DegenerateDesignError,
    InvalidInputError,
    VectorScore,
    build_grid,
    chi_sq_quantile,
    chi_sq_sf,
    custom_score,
    empirical_map,
    estimate_score_cov,
    get_score,
    lambda_tilde,
    make_spec,
    manova_test,
    q_general,
    q_spherical,
    ranks_signs,
    regression_test,
    residuals,
    sphericized_center_outward_test,
    standardize_design,
    two_sample_test,
    wilcoxon_score,
)
from corank.rank_tests import k_sample_statistic
from oracles import group_sum_statistic, rotate_grid


def _pooled_ranks(n, seed, tie_break_seed=0):
    grid = build_grid(make_spec(n, 2, symmetrize=True), tie_break_seed)
    z = np.random.default_rng(seed).standard_normal((n, 2))
    return ranks_signs(empirical_map(z, grid)), grid


def test_residuals_zero_beta_returns_y():
    y = np.arange(12.0).reshape(6, 2)
    c = np.ones((6, 1))
    assert np.array_equal(residuals(y, c, np.zeros((1, 2))), y)
    assert np.array_equal(residuals(y, c), y)


def test_residuals_single_covariate():
    y = np.array([[5.0, 7.0]])
    c = np.array([[2.0]])
    beta0 = np.array([[1.0, 1.0]])
    assert np.array_equal(residuals(y, c, beta0), [[3.0, 5.0]])


def test_residuals_round_trip():
    rng = np.random.default_rng(21)
    y = rng.standard_normal((15, 3))
    c = rng.standard_normal((15, 2))
    beta = rng.standard_normal((2, 3))
    assert np.allclose(residuals(y + c @ beta, c, beta), y, atol=1e-12)


def test_residuals_shape_mismatch():
    with pytest.raises(InvalidInputError):
        residuals(np.zeros((5, 2)), np.zeros((4, 1)))
    with pytest.raises(InvalidInputError):
        residuals(np.zeros((5, 2)), np.zeros((5, 1)), np.zeros((2, 2)))


def test_residuals_refuse_a_beta0_that_is_not_finite_or_overflows():
    rng = np.random.default_rng(22)
    y = rng.standard_normal((20, 2))
    c = 10.0 * rng.standard_normal((20, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="beta0 has non-finite"):
            regression_test(y, c, [[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="beta0 is too large"):
            regression_test(y, c, [[1e308, 0.0], [0.0, 0.0]])


def test_covariates_whose_second_moments_overflow_are_refused():
    rng = np.random.default_rng(24)
    y = rng.standard_normal((20, 2))
    c = rng.standard_normal((20, 2)) * 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="covariates are too large"):
            regression_test(y, c)


def test_standardize_design_two_sample_dummy():
    c = np.concatenate([np.ones(10), np.zeros(10)])[:, None]
    design = standardize_design(c)
    assert design.c_bar[0] == pytest.approx(0.5, abs=1e-15)
    assert design.v_c[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert design.k_n[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_standardize_design_orthonormal_is_identity():
    rng = np.random.default_rng(22)
    q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
    c = (q - q.mean(axis=0)) * np.sqrt(30)
    # rescale so V_c is exactly the identity
    design = standardize_design(c)
    v = design.v_c
    c_fixed = c @ np.linalg.inv(np.linalg.cholesky(v).T)
    design = standardize_design(c_fixed)
    assert np.allclose(design.v_c, np.eye(3), atol=1e-10)
    assert np.allclose(design.k_n, np.eye(3), atol=1e-8)


def test_standardize_design_three_group_dummies():
    n = 30
    c = np.zeros((n, 2))
    c[:10, 0] = 1.0
    c[10:20, 1] = 1.0
    design = standardize_design(c)
    v = np.array([1 / 3, 1 / 3])
    want = np.diag(v) - np.outer(v, v)
    assert np.allclose(design.v_c, want, atol=1e-12)


def test_standardize_design_normalization_identity():
    rng = np.random.default_rng(23)
    for m in (1, 2, 4):
        c = rng.standard_normal((40, m))
        design = standardize_design(c)
        assert np.allclose(design.k_n @ design.v_c @ design.k_n, np.eye(m), atol=1e-8)


def test_standardize_design_rejects_degenerate():
    with pytest.raises(DegenerateDesignError):
        standardize_design(np.ones((10, 1)))
    c = np.random.default_rng(24).standard_normal((10, 2))
    c[:, 1] = 2.0 * c[:, 0]
    with pytest.raises(DegenerateDesignError):
        standardize_design(c)


def test_lambda_tilde_zero_scores():
    rs, _ = _pooled_ranks(36, seed=25)
    zero = corank.custom_score(lambda r: np.zeros_like(np.asarray(r, dtype=float)), norm_sq=1.0)
    design = standardize_design(np.random.default_rng(25).standard_normal((36, 2)))
    lam = lambda_tilde(design, rs, zero)
    assert np.array_equal(lam, np.zeros((2, 2)))


def test_lambda_tilde_hand_example():
    # n=2, m=1: c=(1,0) so c_bar=1/2, V_c=1/4, K_n=2; antipodal scores
    # (a,b) and (-a,-b) give lambda = (a, b)
    class FakeRanks:
        rank = np.array([1.0, 1.0])
        sign = np.array([[0.6, 0.8], [-0.6, -0.8]])
        n_r = 1
        rank_divisor = 2

    a, b = 0.3, 0.4  # wilcoxon at rank 1/(n_r+1)=0.5 along the signs
    design = standardize_design(np.array([[1.0], [0.0]]))
    lam = lambda_tilde(design, FakeRanks(), wilcoxon_score())
    assert np.allclose(lam, [[a, b]], atol=1e-12)


def test_lambda_tilde_constant_covariate_shift_invariant():
    rs, _ = _pooled_ranks(36, seed=26)
    score = get_score("wilcoxon", 2)
    v = score.vector_scores(rs)
    # symmetric grid: pooled vector scores cancel exactly
    assert np.abs(v.sum(axis=0)).max() < 1e-12
    c = np.random.default_rng(26).standard_normal((36, 3))
    lam1 = lambda_tilde(standardize_design(c), rs, score)
    lam2 = lambda_tilde(standardize_design(c + 11.5), rs, score)
    assert np.allclose(lam1, lam2, atol=1e-12)


def test_q_general_zero_lambda():
    assert q_general(np.zeros((2, 2)), np.eye(2) / 6.0, 50) == 0.0


def test_q_general_reduces_to_q_spherical():
    rng = np.random.default_rng(27)
    score = wilcoxon_score()
    for m in (1, 3):
        lam = rng.standard_normal((m, 2)) * 0.05
        gen = q_general(lam, score.score_cov(2), 100)
        sph = q_spherical(lam, score, 2, 100)
        assert gen == pytest.approx(sph, rel=1e-12)


@pytest.mark.parametrize("d", [2, 4])
def test_vector_score_runs_through_the_tests(d):
    # the identity on ball points is the wilcoxon vector score r s, whose
    # covariance integral is I / (3 d), so both paths give one statistic
    rng = np.random.default_rng(40 + d)
    x, y = rng.standard_normal((30, d)), rng.standard_normal((34, d)) + 0.3
    c = rng.standard_normal((64, 2))
    identity = VectorScore(lambda p: p, np.eye(d) / (3 * d))
    for vector, spherical in [
        (two_sample_test(x, y, score=identity), two_sample_test(x, y)),
        (regression_test(np.vstack([x, y]), c, score=identity),
         regression_test(np.vstack([x, y]), c)),
    ]:
        assert vector.statistic == pytest.approx(spherical.statistic, rel=1e-12)
        assert vector.p_value == pytest.approx(spherical.p_value, rel=1e-12)
        assert vector.dof == spherical.dof


def test_vector_score_estimates_its_covariance_on_the_grid():
    # without a covariance, the test estimates it over the grid it uses
    rng = np.random.default_rng(44)
    y, c = rng.standard_normal((60, 3)), rng.standard_normal((60, 2))
    grid = build_grid(make_spec(60, 3, symmetrize=True))

    def cube(p):
        return p ** 3

    score = VectorScore(cube)
    res = regression_test(y, c, score=score, grid=grid)
    lam = lambda_tilde(standardize_design(c), ranks_signs(empirical_map(y, grid)), score)
    want = q_general(lam, estimate_score_cov(cube, grid), 60)
    assert res.statistic == pytest.approx(want, rel=1e-12)
    assert res.score == "vector"


def test_q_general_scalar_case():
    lam = np.array([[0.2]])
    assert q_general(lam, np.array([[0.5]]), 25) == pytest.approx(25 * 0.04 / 0.5, rel=1e-12)


def test_q_general_rejects_singular_covariance():
    with pytest.raises(corank.InvalidScoreError):
        q_general(np.ones((1, 2)), np.ones((2, 2)), 10)


@pytest.mark.parametrize(
    "cov",
    [[[np.inf, 0.0], [0.0, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, 1.0]]],
    ids=["infinite", "nan", "non-symmetric"],
)
def test_vector_score_refuses_a_covariance_it_cannot_trust(cov):
    # eigvalsh's singularity check reads one triangle; the solve reads both
    rng = np.random.default_rng(46)
    x, y = rng.standard_normal((12, 2)), rng.standard_normal((14, 2))
    with pytest.raises(corank.InvalidScoreError, match="finite and symmetric"):
        two_sample_test(x, y, VectorScore(lambda p: p, cov))
    with pytest.raises(corank.InvalidScoreError, match="finite and symmetric"):
        q_general(np.ones((1, 2)), cov, 10)


def test_q_spherical_plug_in_example():
    lam = np.array([[0.1, -0.2]])
    # 100 * 2 * 3 * 0.05
    assert q_spherical(lam, wilcoxon_score(), 2, 100) == pytest.approx(30.0, rel=1e-12)


def test_two_sample_worked_example():
    # pooled n=4 on the 2x2 line grid; group one takes the two positive
    # points, so its wilcoxon score sum is (1/3+2/3, 0) = (1, 0) and
    # Q = (4*2/(2*2*(1/3))) * 1 = 6
    x = np.array([[0.9, 0.0], [2.1, 0.0]])
    y = np.array([[-0.9, 0.0], [-2.1, 0.0]])
    grid = build_grid(make_spec(4, 2, n_r=2, n_s=2, symmetrize=True))
    res = two_sample_test(x, y, "wilcoxon", grid=grid)
    assert res.statistic == pytest.approx(6.0, rel=1e-12)
    assert res.dof == 2
    assert res.method == "co-two-sample"


def test_two_sample_zero_sum_group_scores():
    # group one lands symmetrically, so its score sum vanishes and Q = 0
    x = np.array([[0.9, 0.0], [-0.9, 0.0]])
    y = np.array([[2.1, 0.0], [-2.1, 0.0]])
    grid = build_grid(make_spec(4, 2, n_r=2, n_s=2, symmetrize=True))
    res = two_sample_test(x, y, "wilcoxon", grid=grid)
    assert res.statistic == pytest.approx(0.0, abs=1e-15)
    assert res.p_value == 1.0


def test_two_sample_sign_score_form():
    rng = np.random.default_rng(28)
    x = rng.standard_normal((18, 2))
    y = rng.standard_normal((18, 2)) + 0.3
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    res = two_sample_test(x, y, "sign", grid=grid)
    rs = ranks_signs(empirical_map(np.vstack([x, y]), grid))
    s1 = rs.sign[:18].sum(axis=0)
    want = (36 * 2 / (18 * 18)) * (s1 * s1).sum()
    assert res.statistic == pytest.approx(want, rel=1e-12)


def test_statistic_shift_invariance_exact():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal((16, 2))
    mu = np.array([250.0, -3.75])
    r1 = two_sample_test(x, y, "wilcoxon")
    r2 = two_sample_test(x + mu, y + mu, "wilcoxon")
    assert r1.statistic == r2.statistic


@pytest.mark.parametrize("n", [100, 400])
def test_statistic_rescaling_invariance_on_a_reused_grid(n):
    # a power-of-two rescaling is exact in floating point, so it must not
    # move a single rank, whatever spreads the grid has seen before
    law = corank.make_law("mix2cauchy")
    rng = np.random.default_rng(n)
    x, y = corank.sample(law, n // 2, rng), corank.sample(law, n // 2, rng)
    spec = make_spec(n, 2, symmetrize=True)
    want = two_sample_test(x, y, "vdw", grid=build_grid(spec))
    grid = build_grid(spec)
    for k in (-900, -40, 40, 500):
        got = two_sample_test(x * 2.0 ** k, y * 2.0 ** k, "vdw", grid=grid)
        assert (got.statistic, got.p_value) == (want.statistic, want.p_value)


def test_statistic_rotation_invariance_with_rotated_grid():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((18, 2))
    y = rng.standard_normal((18, 2)) + 0.2
    theta = 0.77
    o = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    r1 = two_sample_test(x, y, "wilcoxon", grid=grid)
    r2 = two_sample_test(x @ o.T, y @ o.T, "wilcoxon", grid=rotate_grid(grid, o))
    assert r2.statistic == pytest.approx(r1.statistic, abs=1e-10)


def test_manova_k2_equals_two_sample():
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.standard_normal((12, 2))
        y = rng.standard_normal((15, 2)) + 0.4
        a = two_sample_test(x, y, "wilcoxon")
        b = manova_test([x, y], "wilcoxon")
        assert a.statistic == b.statistic
        assert a.dof == b.dof


def test_manova_zero_sum_groups():
    groups = [
        np.array([[0.9, 0.0], [-0.9, 0.0]]),
        np.array([[2.1, 0.0], [-2.1, 0.0]]),
        np.array([[3.5, 0.0], [-3.5, 0.0]]),
    ]
    grid = build_grid(make_spec(6, 2, n_r=3, n_s=2, symmetrize=True))
    res = manova_test(groups, "wilcoxon", grid=grid)
    assert res.statistic == pytest.approx(0.0, abs=1e-14)
    assert res.dof == 4


def test_manova_matches_design_path():
    # manova_test agrees with the quadratic form on hand-built dummy covariates
    rng = np.random.default_rng(32)
    sizes = (12, 14, 10)
    groups = [rng.standard_normal((nk, 2)) + off for nk, off in zip(sizes, (0.0, 0.3, -0.2))]
    pooled = np.vstack(groups)
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    res = manova_test(groups, "wilcoxon", grid=grid)

    rs = ranks_signs(empirical_map(pooled, grid))
    score = get_score("wilcoxon", 2)
    dummies = np.zeros((36, 2))
    dummies[:12, 0] = 1.0
    dummies[12:26, 1] = 1.0
    lam = lambda_tilde(standardize_design(dummies), rs, score)
    ref = q_spherical(lam, score, 2, 36)
    assert res.statistic == pytest.approx(ref, abs=1e-8)
    assert res.dof == 4


def test_k_sample_engine_routes_design_path_without_grid():
    # on symmetrized grids with n_0 <= 1 the pooled vector scores cancel, so
    # the dummy-design statistic equals the simplified group-sum form
    rng = np.random.default_rng(33)
    for spec, n_0, splits in [
        (make_spec(36, 2, symmetrize=True), 0, ([18, 18], [10, 14, 12])),
        (make_spec(37, 2, n_r=6, n_s=6, symmetrize=True), 1, ([17, 20], [12, 13, 12])),
    ]:
        assert spec.n_0 == n_0
        grid = build_grid(spec)
        rs = ranks_signs(empirical_map(rng.standard_normal((spec.n, 2)), grid))
        for name in ("sign", "wilcoxon", "vdw"):
            score = get_score(name, 2)
            for sizes in splits:
                ref = group_sum_statistic(rs, sizes, score)
                assert ref > 0.0
                assert k_sample_statistic(rs, sizes, score) == pytest.approx(
                    ref, rel=1e-12
                )


def test_unsymmetrized_grid_falls_back_to_design_path():
    rng = np.random.default_rng(34)
    x = rng.standard_normal((18, 2))
    y = rng.standard_normal((18, 2))
    grid = build_grid(make_spec(36, 2, n_r=4, n_s=9))
    res = two_sample_test(x, y, "wilcoxon", grid=grid)
    assert res.grid_spec.symmetrize is False
    assert np.isfinite(res.statistic)
    assert res.statistic >= 0.0


def test_regression_two_sample_shape_consistency():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((18, 2))
    y = rng.standard_normal((18, 2))
    c = np.concatenate([np.ones(18), np.zeros(18)])[:, None]
    a = two_sample_test(x, y, "wilcoxon")
    b = regression_test(np.vstack([x, y]), c, None, "wilcoxon")
    assert b.statistic == pytest.approx(a.statistic, abs=1e-8)
    assert b.dof == a.dof


def test_regression_null_p_values_uniform():
    beta0 = np.array([[0.5, -1.0], [0.2, 0.3]])
    law = corank.make_law("gauss")
    pvals = np.empty(400)
    for rep in range(400):
        rng = np.random.default_rng([303, rep])
        c = rng.standard_normal((100, 2))
        y = c @ beta0 + corank.sample(law, 100, rng)
        pvals[rep] = regression_test(y, c, beta0, "wilcoxon").p_value
    assert sps.kstest(pvals, "uniform").pvalue > 0.01


def test_regression_rejects_empty_design():
    rng = np.random.default_rng(36)
    with pytest.raises(InvalidInputError):
        regression_test(rng.standard_normal((10, 2)), np.zeros((10, 0)))


def test_regression_reports_errors_in_input_order():
    # the score is checked before the design, the design before the grid
    rng = np.random.default_rng(38)
    y = rng.standard_normal((40, 2))
    constant = np.ones((40, 1))
    with pytest.raises(corank.InvalidScoreError):
        regression_test(y, constant, score="bogus")
    with pytest.raises(corank.InvalidScoreError):
        regression_test(y, rng.standard_normal((40, 1)), score="bogus", grid="bad")
    with pytest.raises(DegenerateDesignError):
        regression_test(y, constant, grid="bad")


def test_regression_needs_no_intercept():
    rng = np.random.default_rng(37)
    y = rng.standard_normal((40, 2))
    c = rng.standard_normal((40, 2))
    # constant columns centre to zero; the error names them
    with_intercept = np.column_stack([np.ones(40), c, np.full(40, 0.1)])
    with pytest.raises(DegenerateDesignError, match=r"\[0, 3\]"):
        regression_test(y, with_intercept)
    # the mean of six 0.1s is not exactly 0.1, so centring leaves dust
    with pytest.raises(DegenerateDesignError, match=r"\[0\]"):
        standardize_design(np.full((6, 1), 0.1))
    # a common shift of the responses leaves the statistic unchanged
    base = regression_test(y, c)
    shifted = regression_test(y + np.array([3.5, -120.25]), c)
    assert shifted.statistic == base.statistic
    assert shifted.p_value == base.p_value


def test_result_seed_is_the_seed_of_the_grid_used():
    rng = np.random.default_rng(61)
    x, y = rng.standard_normal((25, 2)), rng.standard_normal((25, 2))
    spec = make_spec(50, 2, n_r=4, n_s=12, symmetrize=True)
    assert spec.n_0 == 2  # randomly directed tie-break points: the seed matters
    grid = build_grid(spec, tie_break_seed=7)
    c = np.r_[np.ones(25), np.zeros(25)][:, None]
    assert two_sample_test(x, y, grid=grid).seed == 7
    assert sphericized_center_outward_test([x, y], grid=grid).seed == 7
    assert regression_test(np.vstack([x, y]), c, grid=grid).seed == 7
    # without a grid the default one is built with seed 0
    assert two_sample_test(x, y).seed == 0


def test_grid_must_be_a_built_grid():
    rng = np.random.default_rng(62)
    x, y = rng.standard_normal((10, 2)), rng.standard_normal((10, 2))
    c = np.r_[np.ones(10), np.zeros(10)][:, None]
    spec = make_spec(20, 2, symmetrize=True)
    calls = (
        lambda: two_sample_test(x, y, grid=spec),
        lambda: manova_test([x, y], grid=spec),
        lambda: regression_test(np.vstack([x, y]), c, grid=spec),
        lambda: sphericized_center_outward_test([x, y], grid=spec),
    )
    for call in calls:
        with pytest.raises(InvalidInputError, match="grid must be a Grid"):
            call()


def test_result_p_value_consistency():
    rng = np.random.default_rng(37)
    res = two_sample_test(rng.standard_normal((10, 2)), rng.standard_normal((10, 2)))
    assert res.p_value == pytest.approx(float(chi_sq_sf(res.dof, res.statistic)), abs=1e-15)
    payload = res.to_dict()
    for key in ("method", "statistic", "dof", "p_value", "null_dist", "n", "d",
                "n_R", "n_S", "n_0", "score", "seed"):
        assert payload[key] is not None


def test_null_quantiles_match_chi_square(null_stats_n400):
    for p in (0.90, 0.95, 0.99):
        q = np.quantile(null_stats_n400, p)
        target = chi_sq_quantile(2, p)
        assert abs(q / target - 1.0) < 0.05


def test_distribution_freeness_across_laws(freeness_stats):
    ks = sps.ks_2samp(freeness_stats["gauss"], freeness_stats["t1"])
    assert ks.pvalue > 0.01


def test_monotone_power_in_shift():
    cfg = corank.SimConfig(
        study="two_sample",
        law="gauss",
        sizes=(50, 50),
        deltas=(0.0, 0.08, 0.16, 0.24),
        methods=("co",),
        score="wilcoxon",
        n_replications=1000,
        master_seed=808,
    )
    rows = sorted(corank.run_power_study(cfg).rows, key=lambda r: r["delta"])
    for lo, hi in zip(rows, rows[1:]):
        slack = 2.0 * np.hypot(lo["mc_se"], hi["mc_se"])
        assert hi["frequency"] >= lo["frequency"] - slack


def _cube(p):
    return p ** 3


def _table_scores():
    # a grid keeps one score's table, so each score here replaces the last
    return ["sign", "wilcoxon", "vdw", custom_score(np.sqrt, norm_sq=0.5),
            VectorScore(_cube)]


def test_score_table_is_kept_read_only():
    grid = build_grid(make_spec(50, 2, symmetrize=True))
    table, cov = grid.score_table(get_score("vdw", 2))
    assert cov is None and not table.flags.writeable
    # an equal score, as a score name resolves to on every call, finds it
    assert grid.score_table(get_score("vdw", 2))[0] is table
    vector = VectorScore(_cube)
    table, cov = grid.score_table(vector)
    assert not table.flags.writeable and not cov.flags.writeable
    assert np.array_equal(cov, estimate_score_cov(_cube, grid))
    assert grid.score_table(vector)[1] is cov


def test_rotated_grid_does_not_inherit_the_score_table():
    # a spherical statistic cannot tell rotated scores apart, so this
    # takes a vector score, whose table and covariance both rotate
    rng = np.random.default_rng(61)
    x, y = rng.standard_normal((25, 2)), rng.standard_normal((25, 2)) + 0.5
    q = np.array([[0.6, -0.8], [0.8, 0.6]])
    score = VectorScore(_cube)
    grid = build_grid(make_spec(50, 2, symmetrize=True))
    two_sample_test(x, y, score, grid=grid)
    rotated = rotate_grid(grid, q)
    fresh = rotate_grid(build_grid(grid.spec), q)
    got = two_sample_test(x, y, score, grid=rotated)
    assert got == two_sample_test(x, y, score, grid=fresh)
    assert got != two_sample_test(x, y, score, grid=grid)


def test_alternating_scores_on_one_grid_match_fresh_grids():
    rng = np.random.default_rng(62)
    spec = make_spec(50, 2, n_r=5, n_s=10, symmetrize=True)
    grid = build_grid(spec)
    c = rng.standard_normal((50, 2))
    for _ in range(2):
        for score in _table_scores():
            x, y = rng.standard_normal((25, 2)), rng.standard_normal((25, 2)) + 0.3
            assert two_sample_test(x, y, score, grid=grid) == two_sample_test(
                x, y, score, grid=build_grid(spec)
            )
            z = np.vstack([x, y])
            assert regression_test(z, c, score=score, grid=grid) == regression_test(
                z, c, score=score, grid=build_grid(spec)
            )


def test_threads_with_different_scores_share_a_grid():
    # one thread per score, more threads than cores and than kept tables,
    # switching often: each must get what it gets alone
    rng = np.random.default_rng(63)
    spec = make_spec(50, 2, symmetrize=True)
    pairs = [(rng.standard_normal((25, 2)), rng.standard_normal((25, 2)) + 0.3)
             for _ in range(3)]
    scores = _table_scores()
    want = [[two_sample_test(x, y, s, grid=build_grid(spec)) for x, y in pairs]
            for s in scores]
    grid = build_grid(spec)
    got = [None] * len(scores)

    def work(i):
        got[i] = [[two_sample_test(x, y, scores[i], grid=grid) for x, y in pairs]
                  for _ in range(4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(scores))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 4 for w in want]
