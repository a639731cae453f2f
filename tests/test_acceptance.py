"""Acceptance gate: ten criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
Every Monte Carlo constant is frozen; the suite is deterministic.
"""

import time

import numpy as np
from scipy import stats as sps

import corank
from corank import (
    build_grid,
    chi_sq_quantile,
    empirical_map,
    get_score,
    lambda_tilde,
    make_law,
    make_spec,
    manova_test,
    q_spherical,
    ranks_signs,
    sample,
    solve_assignment,
    squared_cost,
    standardize_design,
    two_sample_test,
)
from corank.rank_tests import k_sample_statistic
from oracles import brute_force_assignment, rotate_grid


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_assignment_exactness():
    rng = np.random.default_rng(321)
    start = time.time()
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(3, 9))
        z = rng.standard_normal((n, 2))
        grid = build_grid(make_spec(n, 2))
        cost = squared_cost(z, grid)
        got = solve_assignment(cost)
        want = brute_force_assignment(cost)
        if abs(got.total_cost - want.total_cost) != 0.0:
            mismatches += 1
    elapsed = time.time() - start
    _line(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"500/500 instances exact, {elapsed:.1f}s",
    )


def test_criterion_02_small_n_rank_sign_law():
    grid = build_grid(make_spec(6, 2, n_r=3, n_s=2, symmetrize=True))
    reps = 20000
    rng = np.random.default_rng(20260816)
    gridpoint = np.empty(reps, dtype=int)
    for rep in range(reps):
        z = rng.standard_normal((6, 2))
        gridpoint[rep] = empirical_map(z, grid).assignment[0]
    counts = np.bincount(gridpoint, minlength=6)
    gof_p = sps.chisquare(counts).pvalue
    table = np.zeros((3, 2))
    for g in range(6):
        r = grid.radius_index[g] - 1
        s = grid.direction_index[g] - 1
        table[r, s] += counts[g]
    indep_p = sps.chi2_contingency(table).pvalue
    _line(
        2,
        gof_p > 0.001 and indep_p > 0.001,
        f"gridpoint uniformity p={gof_p:.3f}, rank-sign independence p={indep_p:.3f}",
    )


def test_criterion_03_distribution_freeness(freeness_stats):
    ks = sps.ks_2samp(freeness_stats["gauss"], freeness_stats["t1"])
    _line(
        3,
        ks.pvalue > 0.01,
        f"KS gauss vs cauchy errors p={ks.pvalue:.3f} (N=5000 each)",
    )


def test_criterion_04_null_size():
    law = make_law("gauss")
    grid = build_grid(make_spec(100, 2, symmetrize=True))
    rejections = 0
    reps = 2000
    for rep in range(reps):
        rng = np.random.default_rng([4242, rep])
        x = sample(law, 50, rng)
        y = sample(law, 50, rng)
        if two_sample_test(x, y, "wilcoxon", grid=grid).p_value < 0.05:
            rejections += 1
    size = rejections / reps
    _line(4, 0.035 <= size <= 0.065, f"empirical size {size:.4f} at alpha 0.05")


def test_criterion_05_chi_square_quantile(null_stats_n400):
    q = float(np.quantile(null_stats_n400, 0.95))
    target = chi_sq_quantile(2, 0.95)
    rel = abs(q / target - 1.0)
    _line(5, rel < 0.05, f"95% null quantile {q:.3f} vs {target:.4f}, rel err {rel:.3%}")


def test_criterion_06_heavy_tail_power_ordering(mix2cauchy_power):
    co_f, co_se = mix2cauchy_power["co"]
    el_f, el_se = mix2cauchy_power["elliptical"]
    ht_f, ht_se = mix2cauchy_power["hotelling"]
    ok = (co_f - el_f > 2.0 * np.hypot(co_se, el_se)) and (
        co_f - ht_f > 2.0 * np.hypot(co_se, ht_se)
    )
    _line(
        6,
        ok,
        f"mix2cauchy power co {co_f:.3f} > elliptical {el_f:.3f} > hotelling {ht_f:.3f}",
    )


def test_criterion_07_gaussian_parity():
    cfg = corank.SimConfig(
        study="two_sample",
        law="gauss",
        sizes=(50, 50),
        deltas=(0.0, 0.2, 0.4),
        methods=("co", "elliptical", "hotelling"),
        score="wilcoxon",
        n_replications=1000,
        master_seed=707,
    )
    curve = corank.run_power_study(cfg)
    worst = -np.inf
    ok = True
    for delta in cfg.deltas:
        for i, a in enumerate(cfg.methods):
            for b in cfg.methods[i + 1 :]:
                gap = abs(curve.frequency(a, delta) - curve.frequency(b, delta))
                limit = 4.0 * np.hypot(curve.mc_se(a, delta), curve.mc_se(b, delta))
                worst = max(worst, gap - limit)
                ok = ok and gap < limit
    _line(7, ok, f"max pairwise power gap minus 4se limit: {worst:.4f} (must be < 0)")


def test_criterion_08_shift_and_rotation_invariance():
    worst_rot = 0.0
    for i in range(100):
        rng = np.random.default_rng([888, i])
        x = rng.standard_normal((10, 2))
        y = rng.standard_normal((10, 2)) + 0.3
        grid = build_grid(make_spec(20, 2, symmetrize=True))
        base = two_sample_test(x, y, "wilcoxon", grid=grid)
        mu = np.array([37.5, -12.25])
        shifted = two_sample_test(x + mu, y + mu, "wilcoxon", grid=grid)
        if shifted.statistic != base.statistic:
            _line(8, False, f"dataset {i}: shift changed the statistic")
        theta = rng.uniform(0.0, 2.0 * np.pi)
        o = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        rotated = two_sample_test(
            x @ o.T, y @ o.T, "wilcoxon", grid=rotate_grid(grid, o)
        )
        worst_rot = max(worst_rot, abs(rotated.statistic - base.statistic))
    _line(
        8,
        worst_rot <= 1e-6,
        f"shifts exact on 100 datasets, max rotation gap {worst_rot:.2e}",
    )


def test_criterion_09_manova_reduction():
    worst_k3 = 0.0
    for i in range(100):
        rng = np.random.default_rng([999, i])
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((9, 2)) + 0.4
        a = two_sample_test(x, y, "wilcoxon")
        b = manova_test([x, y], "wilcoxon")
        if a.statistic != b.statistic:
            _line(9, False, f"dataset {i}: K=2 manova differs from two-sample")
        groups = [rng.standard_normal((12, 2)) + off for off in (0.0, 0.3, -0.2)]
        grid = build_grid(make_spec(36, 2, symmetrize=True))
        res = manova_test(groups, "wilcoxon", grid=grid)
        rs = ranks_signs(empirical_map(np.vstack(groups), grid))
        score = get_score("wilcoxon", 2)
        dummies = np.zeros((36, 2))
        dummies[:12, 0] = 1.0
        dummies[12:24, 1] = 1.0
        lam = lambda_tilde(standardize_design(dummies), rs, score)
        ref = q_spherical(lam, score, 2, 36)
        worst_k3 = max(worst_k3, abs(res.statistic - ref))
    _line(
        9,
        worst_k3 <= 1e-8,
        f"K=2 exact on 100 datasets, K=3 design-path gap {worst_k3:.2e}",
    )


def test_criterion_10_baseline_oracles():
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng([1010, i])
        x = rng.standard_normal((16, 3))
        y = rng.standard_normal((14, 3)) + 0.3
        res = corank.hotelling_two_sample(x, y)
        n1, n2, d = 16, 14, 3
        n = n1 + n2
        s1 = np.cov(x, rowvar=False)
        s2 = np.cov(y, rowvar=False)
        pooled = ((n1 - 1) * s1 + (n2 - 1) * s2) / (n - 2)
        diff = x.mean(0) - y.mean(0)
        t_sq = n1 * n2 / n * diff @ np.linalg.inv(pooled) @ diff
        f_stat = t_sq * (n - 1 - d) / ((n - 2) * d)
        p = sps.f.sf(f_stat, d, n - 1 - d)
        worst = max(worst, abs(res.statistic - t_sq), abs(res.p_value - p))

        groups = [rng.standard_normal((12, 3)) + off for off in (0.0, 0.4, -0.3)]
        pil = corank.pillai_manova(groups)
        pooled3 = np.vstack(groups)
        grand = pooled3.mean(axis=0)
        h = np.zeros((3, 3))
        e = np.zeros((3, 3))
        for g in groups:
            dev = (g.mean(axis=0) - grand)[:, None]
            h += g.shape[0] * dev @ dev.T
            resid = g - g.mean(axis=0)
            e += resid.T @ resid
        lams = np.linalg.eigvals(np.linalg.solve(e, h)).real
        v = float((lams / (1.0 + lams)).sum())
        s, k, nn = min(3, 2), 3, 36
        m_par = (abs(3 - k + 1) - 1) / 2.0
        n_par = (nn - k - 3 - 1) / 2.0
        df1 = s * (2 * m_par + s + 1)
        df2 = s * (2 * n_par + s + 1)
        f_pil = (df2 / df1) * v / (s - v)
        p_pil = sps.f.sf(f_pil, df1, df2)
        worst = max(worst, abs(pil.statistic - v), abs(pil.p_value - p_pil))
    _line(10, worst <= 1e-8, f"hotelling and pillai textbook gap {worst:.2e} on 100 instances")
