"""Scatter estimation, elliptical ranks, and the classical baselines."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps
from scipy.linalg import solve_triangular

import corank
from corank import (
    DegenerateInputError,
    InvalidInputError,
    NumericalError,
    ScatterEstimate,
    SimConfig,
    build_grid,
    chi_sq_quantile,
    chi_sq_sf,
    elliptical_rank_test,
    elliptical_ranks_signs,
    hotelling_two_sample,
    make_spec,
    pillai_manova,
    run_power_study,
    sample_covariance,
    sphericize,
    sphericized_center_outward_test,
    tyler_scatter,
)
from corank import scores
from oracles import hotelling_t2


def test_sample_covariance_pin():
    est = sample_covariance(np.array([[1.0, 0.0], [3.0, 0.0]]))
    assert np.array_equal(est.location, [2.0, 0.0])
    assert np.array_equal(est.matrix, [[2.0, 0.0], [0.0, 0.0]])
    assert est.kind == "sample"


def test_sample_covariance_matches_numpy():
    z = np.random.default_rng(40).standard_normal((30, 3))
    est = sample_covariance(z)
    assert np.allclose(est.matrix, np.cov(z, rowvar=False, ddof=1), atol=1e-14)


def test_sample_covariance_input_checks():
    with pytest.raises(InvalidInputError):
        sample_covariance(np.zeros((1, 2)))
    with pytest.raises(InvalidInputError):
        sample_covariance(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_tyler_recovers_spherical_shape():
    z = np.random.default_rng(8).standard_normal((4000, 2))
    est = tyler_scatter(z)
    assert est.kind == "tyler"
    assert np.trace(est.matrix) == pytest.approx(2.0, abs=1e-9)
    assert abs(est.matrix[0, 1]) < 0.03
    assert abs(est.matrix[0, 0] - 1.0) < 0.05


def test_tyler_ignores_radial_contamination():
    # scaling individual observations must not move the estimate
    rng = np.random.default_rng(41)
    z = rng.standard_normal((500, 2))
    scales = rng.uniform(0.1, 50.0, size=500)
    a = tyler_scatter(z, location=np.zeros(2))
    b = tyler_scatter(z * scales[:, None], location=np.zeros(2))
    assert np.allclose(a.matrix, b.matrix, atol=1e-6)


def test_tyler_affine_equivariance():
    rng = np.random.default_rng(42)
    z = rng.standard_normal((800, 2))
    a = np.array([[2.0, 0.7], [0.0, 0.5]])
    v1 = tyler_scatter(z, location=np.zeros(2)).matrix
    v2 = tyler_scatter(z @ a.T, location=np.zeros(2)).matrix
    want = a @ v1 @ a.T
    want *= 2.0 / np.trace(want)
    assert np.allclose(v2, want, atol=1e-6)


def test_tyler_rejects_observation_at_location():
    z = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]])
    with pytest.raises(DegenerateInputError):
        tyler_scatter(z, location=np.zeros(2))


@pytest.mark.parametrize(
    "location",
    [[np.nan, 0.0], [np.inf, 0.0], [0.0, 0.0, 0.0], [0.0], 0.0, [[0.0, 0.0]]],
    ids=["nan", "inf", "too-long", "too-short", "scalar", "2-d"],
)
def test_tyler_rejects_a_bad_location(location):
    z = np.random.default_rng(44).standard_normal((30, 2))
    with pytest.raises(InvalidInputError, match="location"):
        tyler_scatter(z, location=location)


def test_tyler_collinear_data_is_numerical_error():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    z = np.column_stack([t, t])
    with pytest.raises(NumericalError):
        tyler_scatter(z)


def test_sphericize_identity_scatter_only_centers():
    z = np.random.default_rng(43).standard_normal((10, 2)) + 5.0
    est = ScatterEstimate(matrix=np.eye(2), location=np.zeros(2), kind="sample")
    assert np.allclose(sphericize(z, est), z, atol=1e-14)


def test_sphericize_diagonal_pin():
    z = np.array([[2.0, 3.0], [-4.0, 1.0]])
    est = ScatterEstimate(matrix=np.diag([4.0, 1.0]), location=np.zeros(2), kind="sample")
    assert np.allclose(sphericize(z, est), [[1.0, 3.0], [-2.0, 1.0]], atol=1e-14)


def test_sphericize_whitens_to_identity():
    rng = np.random.default_rng(44)
    z = rng.standard_normal((200, 3)) @ np.array(
        [[2.0, 0.0, 0.0], [0.4, 1.0, 0.0], [-0.3, 0.8, 0.5]]
    )
    for root in ("symmetric", "cholesky"):
        w = sphericize(z, sample_covariance(z), root=root)
        assert np.allclose(sample_covariance(w).matrix, np.eye(3), atol=1e-8)
        assert np.allclose(w.mean(axis=0), 0.0, atol=1e-10)


def test_sphericize_is_idempotent():
    rng = np.random.default_rng(45)
    z = rng.standard_normal((60, 2)) @ np.array([[3.0, 1.0], [0.0, 0.7]])
    w = sphericize(z, sample_covariance(z))
    again = sphericize(w, sample_covariance(w))
    assert np.allclose(again, w, atol=1e-10)


def test_sphericize_rejects_singular_scatter():
    z = np.random.default_rng(46).standard_normal((10, 2))
    est = ScatterEstimate(matrix=np.ones((2, 2)), location=np.zeros(2), kind="sample")
    for root in ("symmetric", "cholesky"):
        with pytest.raises(DegenerateInputError):
            sphericize(z, est, root=root)
    with pytest.raises(InvalidInputError):
        sphericize(z, sample_covariance(z), root="qr")


@pytest.mark.parametrize("root", ["symmetric", "cholesky"])
def test_sphericize_rejects_nonfinite_scatter(root):
    z = np.random.default_rng(47).standard_normal((10, 2))
    good = sample_covariance(z)
    bad_matrix = good.matrix.copy()
    bad_matrix[0, 1] = bad_matrix[1, 0] = np.nan
    for est in (
        ScatterEstimate(matrix=bad_matrix, location=good.location, kind="sample"),
        ScatterEstimate(matrix=good.matrix, location=np.array([np.inf, 0.0]),
                        kind="sample"),
    ):
        with pytest.raises(InvalidInputError, match="non-finite"):
            sphericize(z, est, root=root)


@pytest.mark.parametrize("estimate", [sample_covariance, tyler_scatter])
def test_cholesky_root_equals_scipy_triangular_solve(estimate):
    # the root calls LAPACK's trtrs as solve_triangular does, so the
    # sphericized sample is the same to the last bit
    rng = np.random.default_rng(48)
    for d in (1, 2, 3, 5):
        z = rng.standard_t(3, size=(40, d)) * rng.uniform(0.1, 10.0, size=d)
        est = estimate(z)
        want = solve_triangular(
            np.linalg.cholesky(est.matrix), (z - est.location).T, lower=True
        ).T
        assert np.array_equal(sphericize(z, est, root="cholesky"), want)


def test_elliptical_ranks_pin():
    rs = elliptical_ranks_signs(np.array([[1.0, 0.0], [0.0, -2.0]]))
    assert np.array_equal(rs.rank, [1.0, 2.0])
    assert np.array_equal(rs.sign, [[1.0, 0.0], [0.0, -1.0]])
    assert rs.n_r == 2
    assert rs.rank_divisor == 3


def test_elliptical_ranks_break_ties_by_row_order():
    # rows 0, 1 and 3 share modulus 1; ties go to the earlier row in
    # either row order
    z = np.array([[1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [-1.0, 0.0]])
    rs = elliptical_ranks_signs(z)
    assert np.array_equal(rs.rank, [1.0, 2.0, 4.0, 3.0])
    assert np.array_equal(rs.sign, [[1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]])
    rs = elliptical_ranks_signs(z[::-1])
    assert np.array_equal(rs.rank, [1.0, 4.0, 2.0, 3.0])
    assert np.array_equal(rs.sign, [[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [1.0, 0.0]])


def test_elliptical_ranks_are_a_permutation():
    z = np.random.default_rng(47).standard_normal((40, 3))
    rs = elliptical_ranks_signs(z)
    assert np.array_equal(np.sort(rs.rank), np.arange(1, 41, dtype=float))
    assert np.allclose(np.linalg.norm(rs.sign, axis=1), 1.0, atol=1e-12)


def test_elliptical_ranks_reject_zero_modulus():
    with pytest.raises(DegenerateInputError):
        elliptical_ranks_signs(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_elliptical_test_rotation_invariant():
    rng = np.random.default_rng(48)
    x = rng.standard_normal((25, 2))
    y = rng.standard_normal((25, 2)) + 0.3
    theta = 1.1
    o = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    r1 = elliptical_rank_test([x, y])
    r2 = elliptical_rank_test([x @ o.T, y @ o.T])
    assert r2.statistic == pytest.approx(r1.statistic, abs=1e-8)


def test_elliptical_test_result_fields():
    rng = np.random.default_rng(49)
    groups = [rng.standard_normal((15, 2)) for _ in range(3)]
    res = elliptical_rank_test(groups, "sign")
    assert res.method == "elliptical-manova"
    assert res.dof == 4
    assert res.p_value == pytest.approx(float(chi_sq_sf(4, res.statistic)), abs=1e-15)
    two = elliptical_rank_test(groups[:2])
    assert two.method == "elliptical-two-sample"


def test_elliptical_null_quantile_matches_chi_square():
    stats = np.empty(3000)
    for rep in range(3000):
        rng = np.random.default_rng([66, rep])
        x = rng.standard_normal((200, 2))
        y = rng.standard_normal((200, 2))
        stats[rep] = elliptical_rank_test([x, y]).statistic
    q = np.quantile(stats, 0.95)
    assert abs(q / chi_sq_quantile(2, 0.95) - 1.0) < 0.05


def test_elliptical_study_evaluates_j_once(monkeypatch):
    # elliptical ranks are a permutation of 1..n on every call, and a
    # study reads them through one score object, so J is evaluated once
    # per (score, n) and read by rank afterwards
    calls = []
    quantile = scores.chi_sq_quantile

    def spy(d, p):
        calls.append(np.size(p))
        return quantile(d, p)

    monkeypatch.setattr(scores, "chi_sq_quantile", spy)
    config = SimConfig(law="t3", sizes=(25, 25), deltas=(0.0, 0.2, 0.4),
                       methods=("elliptical",), score="vdw", n_replications=8,
                       master_seed=11)
    run_power_study(config)
    assert calls == [50]
    calls.clear()
    run_power_study(replace(config, sizes=(24, 25)))
    assert calls == [49]


@pytest.mark.parametrize("name", ["sign", "wilcoxon", "vdw"])
def test_whole_rank_table_gives_the_evaluated_scores(name):
    rng = np.random.default_rng(58)
    containers = [elliptical_ranks_signs(rng.standard_normal((30, 3)))]
    # a grid's own ranks: all whole at n = 30, with an origin point of
    # rank 0 at n = 31 and tie-break points of rank 1/2 at n = 32
    for n in (30, 31, 32):
        grid = build_grid(make_spec(n, 2, symmetrize=True))
        containers.append(corank.RanksSigns(grid.rank_values(), grid.sign_vectors(),
                                            grid.n_r))
    assert {0.0, 0.5} <= set(np.concatenate([rs.rank for rs in containers]))
    for rs in containers:
        score = corank.get_score(name, rs.d)
        fresh = np.asarray(score.evaluate(rs.rank / rs.rank_divisor))[:, None] * rs.sign
        for _ in range(2):  # the first read fills the table, the second reads it
            assert np.array_equal(score.vector_scores(rs), fresh)


def test_sphericized_test_diagonal_scale_invariant():
    rng = np.random.default_rng(50)
    x = rng.standard_normal((20, 2))
    y = rng.standard_normal((20, 2)) + 0.4
    a = np.diag([10.0, 0.25])
    r1 = sphericized_center_outward_test([x, y])
    r2 = sphericized_center_outward_test([x @ a, y @ a])
    # positive-diagonal rescaling commutes with the Cholesky whitening
    assert r2.statistic == pytest.approx(r1.statistic, abs=1e-8)
    assert r1.method == "co-sphericized-two-sample"


def test_sphericized_test_tyler_scatter():
    rng = np.random.default_rng(51)
    groups = [rng.standard_normal((12, 2)) for _ in range(3)]
    res = sphericized_center_outward_test(groups, scatter="tyler")
    assert res.method == "co-sphericized-manova"
    assert np.isfinite(res.statistic)
    with pytest.raises(InvalidInputError):
        sphericized_center_outward_test(groups, scatter="mcd")


def test_sphericized_test_uses_the_grid_it_is_given():
    rng = np.random.default_rng(52)
    groups = [rng.standard_normal((25, 2)), rng.standard_normal((25, 2)) + 0.3]
    spec = make_spec(50, 2, n_r=4, n_s=12, symmetrize=True)
    assert spec.n_0 == 2  # randomly directed tie-break points: the seed matters
    stats = {
        sphericized_center_outward_test(
            groups, "vdw", grid=build_grid(spec, tie_break_seed=s)
        ).statistic
        for s in (7, 8)
    }
    assert len(stats) == 2


def test_hotelling_zero_iff_equal_means():
    rng = np.random.default_rng(52)
    x = rng.standard_normal((15, 2))
    same = hotelling_two_sample(x, x.copy())
    assert same.statistic == 0.0
    shifted = hotelling_two_sample(x, x + 0.5)
    assert shifted.statistic > 0.0


def test_hotelling_d1_is_pooled_t_squared():
    rng = np.random.default_rng(53)
    x = rng.standard_normal((14, 1))
    y = rng.standard_normal((19, 1)) + 0.3
    res = hotelling_two_sample(x, y)
    t = sps.ttest_ind(x.ravel(), y.ravel(), equal_var=True)
    assert res.statistic == pytest.approx(t.statistic**2, rel=1e-12)
    assert res.p_value == pytest.approx(t.pvalue, rel=1e-10)
    assert res.dof == (1, 31)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_hotelling_matches_textbook_oracle(d):
    rng = np.random.default_rng(57 + d)
    x = rng.standard_t(5, size=(13, d)) * rng.uniform(0.5, 3.0, size=d)
    y = rng.standard_t(5, size=(21, d)) + 0.4
    res = hotelling_two_sample(x, y)
    t_sq, p_value = hotelling_t2(x, y)
    assert res.statistic == pytest.approx(t_sq, rel=1e-12)
    assert res.p_value == pytest.approx(p_value, rel=1e-12)


def test_hotelling_matches_statsmodels():
    mv = pytest.importorskip("statsmodels.multivariate.manova")
    rng = np.random.default_rng(54)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal((25, 3)) + 0.4
    res = hotelling_two_sample(x, y)
    endog = np.vstack([x, y])
    exog = np.column_stack(
        [np.ones(45), np.concatenate([np.ones(20), np.zeros(25)])]
    )
    fit = mv.MANOVA(endog, exog).mv_test(
        [("group", np.array([[0.0, 1.0]]))]
    )
    table = fit.results["group"]["stat"]
    f_ref = float(table.loc["Hotelling-Lawley trace", "F Value"])
    p_ref = float(table.loc["Hotelling-Lawley trace", "Pr > F"])
    f_ours = res.statistic * (45 - 1 - 3) / ((45 - 2) * 3)
    assert f_ours == pytest.approx(f_ref, rel=1e-8)
    assert res.p_value == pytest.approx(p_ref, rel=1e-8, abs=1e-12)


def test_hotelling_input_guards():
    rng = np.random.default_rng(55)
    with pytest.raises(InvalidInputError):
        hotelling_two_sample(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
    t = np.linspace(1.0, 4.0, 8)
    flat = np.column_stack([t, 2.0 * t])
    with pytest.raises(DegenerateInputError):
        hotelling_two_sample(flat, flat + 1.0)


def test_pillai_zero_when_group_means_coincide():
    rng = np.random.default_rng(56)
    x = rng.standard_normal((12, 2))
    x -= x.mean(axis=0)
    res = pillai_manova([x, x.copy(), x.copy()])
    assert res.statistic == pytest.approx(0.0, abs=1e-15)
    assert res.method == "pillai"


def test_pillai_k2_matches_hotelling():
    rng = np.random.default_rng(57)
    for _ in range(20):
        x = rng.standard_normal((16, 2))
        y = rng.standard_normal((13, 2)) + 0.5
        a = pillai_manova([x, y])
        b = hotelling_two_sample(x, y)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-8)


def test_pillai_eigenvalue_oracle():
    # V = sum lambda_i / (1 + lambda_i) over eigenvalues of E^{-1} H
    rng = np.random.default_rng(58)
    for _ in range(100):
        groups = [rng.standard_normal((20, 3)) + off for off in (0.0, 0.4, -0.3)]
        res = pillai_manova(groups)
        pooled = np.vstack(groups)
        grand = pooled.mean(axis=0)
        h = np.zeros((3, 3))
        e = np.zeros((3, 3))
        for g in groups:
            dev = (g.mean(axis=0) - grand)[:, None]
            h += g.shape[0] * dev @ dev.T
            resid = g - g.mean(axis=0)
            e += resid.T @ resid
        lams = np.linalg.eigvals(np.linalg.solve(e, h)).real
        assert res.statistic == pytest.approx(float((lams / (1 + lams)).sum()), abs=1e-8)


def test_pillai_insufficient_sample():
    rng = np.random.default_rng(59)
    groups = [rng.standard_normal((2, 3)) for _ in range(2)]
    with pytest.raises(InvalidInputError):
        pillai_manova(groups)


# every K-group test, called on a list of groups; the two-group ones take the
# first two
K_GROUP_TESTS = {
    "two_sample": lambda g: corank.two_sample_test(g[0], g[1]),
    "manova": lambda g: corank.manova_test(g),
    "co-sphericized": lambda g: sphericized_center_outward_test(g, scatter="tyler"),
    "elliptical": lambda g: elliptical_rank_test(g),
    "pillai": lambda g: pillai_manova(g),
    "hotelling": lambda g: hotelling_two_sample(g[0], g[1]),
}


def _t3_groups():
    rng = np.random.default_rng(23)
    return [rng.standard_t(3, size=(m, 2)) + 0.2 * k for k, m in enumerate((15, 12, 10))]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(K_GROUP_TESTS))
def test_k_group_tests_refuse_a_non_finite_row(name, bad):
    groups = _t3_groups()
    groups[1][4, 0] = bad
    with pytest.raises(InvalidInputError, match="group 1 row 4 is not finite"):
        K_GROUP_TESTS[name](groups)


@pytest.mark.parametrize("name", sorted(K_GROUP_TESTS))
def test_k_group_tests_give_the_unit_scale_result_at_any_scale(name):
    groups = _t3_groups()
    base = K_GROUP_TESTS[name](groups)
    big = K_GROUP_TESTS[name]([g * 2.0**600 for g in groups])
    tiny = K_GROUP_TESTS[name]([g * 2.0**-600 for g in groups])
    # both are brought back to the same power-of-two scale
    assert (big.statistic, big.p_value) == (tiny.statistic, tiny.p_value)
    assert big.statistic == pytest.approx(base.statistic, rel=1e-12)
    assert big.p_value == pytest.approx(base.p_value, rel=1e-12)


def test_groups_are_pooled_once_in_order():
    groups = _t3_groups()
    pooled, sizes = corank.rank_tests.validate_groups(groups)
    assert sizes == (15, 12, 10)
    assert all(type(n) is int for n in sizes)
    assert pooled.flags.c_contiguous
    assert np.array_equal(pooled, np.vstack(groups))
    with pytest.raises(InvalidInputError, match="group 1 has 3 columns"):
        hotelling_two_sample(groups[0], np.ones((4, 3)))
    with pytest.raises(InvalidInputError, match="group 0 must be a 2-d array with"):
        pillai_manova([np.ones((4, 0)), np.ones((4, 0))])


# the K-group tests that take a grid, with that grid
GRID_TESTS = {
    "two_sample": lambda g, grid: corank.two_sample_test(g[0], g[1], grid=grid),
    "manova": lambda g, grid: corank.manova_test(g, grid=grid),
    "co-sphericized": lambda g, grid: sphericized_center_outward_test(g, grid=grid),
}


@pytest.mark.parametrize("name", sorted(K_GROUP_TESTS))
def test_k_group_tests_refuse_groups_the_door_refuses(name):
    # a study checks each draw once and runs the bodies below this check,
    # so every public test must still make it itself
    groups = _t3_groups()
    with pytest.raises(InvalidInputError, match="group 1 has 3 columns, expected 2"):
        K_GROUP_TESTS[name]([groups[0], np.ones((12, 3)), groups[2]])
    with pytest.raises(InvalidInputError, match="group 1 has fewer than 2 observations"):
        K_GROUP_TESTS[name]([groups[0], groups[1][:1], groups[2]])


@pytest.mark.parametrize("name", sorted(GRID_TESTS))
def test_grid_tests_refuse_a_grid_that_does_not_fit(name):
    groups = _t3_groups()[:2]
    with pytest.raises(InvalidInputError, match="grid must be a Grid"):
        GRID_TESTS[name](groups, make_spec(27, 2, symmetrize=True))
    with pytest.raises(InvalidInputError, match="does not match sample shape"):
        GRID_TESTS[name](groups, build_grid(make_spec(28, 2, symmetrize=True)))


def test_a_grid_outside_the_unit_ball_is_refused_where_it_is_made():
    grid = build_grid(make_spec(27, 2, symmetrize=True))
    for points in (grid.points * 1.5, np.where(grid.points == grid.points[0, 0],
                                               np.nan, grid.points)):
        with pytest.raises(InvalidInputError, match="gridpoint coordinates reach"):
            replace(grid, points=points)
    # the points a grid was checked with cannot change under it
    with pytest.raises(ValueError, match="read-only"):
        grid.points[0, 0] = 2.0


def test_single_sample_helpers_still_refuse_bad_input():
    z = np.random.default_rng(3).standard_normal((20, 2))
    bad = z.copy()
    bad[4, 1] = np.nan
    for helper in (sample_covariance, tyler_scatter, elliptical_ranks_signs,
                   lambda s: sphericize(s, sample_covariance(z))):
        with pytest.raises(InvalidInputError, match="non-finite"):
            helper(bad)
        with pytest.raises(InvalidInputError, match="need a 2-d sample"):
            helper(z[:1])
        with pytest.raises(InvalidInputError, match="need a 2-d sample"):
            helper(z[:, 0])
    est = sample_covariance(z)
    for scatter in (replace(est, matrix=est.matrix * np.inf),
                    replace(est, location=est.location * np.nan)):
        with pytest.raises(InvalidInputError, match="scatter estimate has non-finite"):
            sphericize(z, scatter)
    with pytest.raises(InvalidInputError, match="unknown root"):
        sphericize(z, est, root="qr")
    with pytest.raises(InvalidInputError, match="non-finite coordinates"):
        corank.squared_cost(bad, build_grid(make_spec(20, 2)))
    with pytest.raises(InvalidInputError, match="non-finite coordinates"):
        corank.squared_cost(z, bad)
    with pytest.raises(InvalidInputError, match="shapes differ"):
        corank.squared_cost(z, z[:10])


@pytest.mark.parametrize("scale", [1e160, 2.0**600], ids=["1e160", "2^600"])
def test_single_sample_helpers_at_a_scale_whose_squares_overflow(scale):
    # run under the suite's -W error, so an overflow warning fails the test
    z = np.random.default_rng(4).standard_t(3, size=(20, 2))
    big = z * scale
    with pytest.raises(InvalidInputError, match="too large in scale"):
        sample_covariance(big)
    exact = scale == 2.0**600  # a power of two rescales without rounding
    tyler, tyler_big = tyler_scatter(z), tyler_scatter(big)
    rs, rs_big = elliptical_ranks_signs(z), elliptical_ranks_signs(big)
    assert np.array_equal(rs.rank, rs_big.rank)
    if exact:
        assert np.array_equal(tyler_big.matrix, tyler.matrix)
        assert np.array_equal(tyler_big.location, tyler.location * scale)
        assert np.array_equal(rs_big.sign, rs.sign)
    else:
        assert np.allclose(tyler_big.matrix, tyler.matrix, rtol=1e-10, atol=0.0)
        assert np.allclose(tyler_big.location, tyler.location * scale, rtol=1e-12, atol=0.0)
        assert np.allclose(rs_big.sign, rs.sign, rtol=1e-12, atol=1e-15)
    given = tyler_scatter(big, location=tyler_big.location)
    assert np.array_equal(given.location, tyler_big.location)
    for root in ("symmetric", "cholesky"):
        want = sphericize(z, tyler, root=root)
        got = sphericize(big, tyler_big, root=root)
        if exact:
            assert np.array_equal(got, want * scale)
        else:
            assert np.allclose(got / scale, want, rtol=1e-9, atol=1e-12)
