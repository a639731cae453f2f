"""Empirical map and rank/sign extraction.

The closed-form oracle used by the convergence test: for a standard
bivariate normal Z the population map sends z to Psi(||z||^2) * z/||z||
with Psi the chi-square(2) cdf, a spherically symmetric transform.
"""

import io

import numpy as np
import pytest

import corank
from corank import (
    GridSpec,
    InvalidInputError,
    InvalidSpecError,
    build_grid,
    empirical_map,
    make_law,
    make_spec,
    ranks_signs,
    sample,
    two_sample_test,
)
from oracles import brute_force_assignment, chi_sq_cdf, ranks_signs_to_csv, rotate_grid


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def test_map_recovers_grid_on_itself():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    rng = np.random.default_rng(1)
    perm = rng.permutation(36)
    com = empirical_map(grid.points[perm], grid)
    assert com.total_cost == 0.0
    assert np.array_equal(com.values, grid.points[perm])


def test_map_refuses_univariate():
    with pytest.raises(InvalidSpecError):
        empirical_map(np.zeros((6, 1)), build_grid(make_spec(6, 1)))


def test_map_takes_only_a_built_grid():
    spec = make_spec(6, 2, symmetrize=True)
    for grid in (spec, spec.n, None):
        with pytest.raises(InvalidInputError, match="grid must be a Grid"):
            empirical_map(np.eye(6, 2), grid)


def test_map_rejects_shape_mismatch_and_nonfinite():
    grid = build_grid(make_spec(6, 2, symmetrize=True))
    with pytest.raises(InvalidInputError):
        empirical_map(np.zeros((5, 2)), grid)
    bad = np.zeros((6, 2))
    bad[2, 1] = np.nan
    with pytest.raises(InvalidInputError):
        empirical_map(bad, grid)


def test_collinear_sample_fills_the_line_grid():
    # grid {(1/3,0),(2/3,0),(-1/3,0),(-2/3,0)}; outer sample points take
    # the outer gridpoints on their own side
    spec = GridSpec(n=4, d=2, n_r=2, n_s=2, n_0=0, symmetrize=True)
    grid = build_grid(spec)
    sample = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    com = empirical_map(sample, grid)
    expected = np.array([[-2 / 3, 0.0], [-1 / 3, 0.0], [1 / 3, 0.0], [2 / 3, 0.0]])
    assert np.allclose(com.values, expected, atol=1e-15)
    # cross-check against the exhaustive optimum
    brute = brute_force_assignment(corank.squared_cost(sample, grid))
    assert com.total_cost == brute.total_cost


def test_map_is_stable_under_large_translations():
    # uncentred, an offset of 1e6 flips dozens of these 400 assignments
    # and 1e8 nearly all of them
    rng = np.random.default_rng(404)
    law = make_law("t3")
    x, y = sample(law, 200, rng), sample(law, 200, rng)
    grid = build_grid(make_spec(400, 2, symmetrize=True))
    base = empirical_map(np.vstack([x, y]), grid)
    base_stat = two_sample_test(x, y, grid=grid).statistic
    for off in (1e6, 1e8):
        shift = np.array([off, -off])
        com = empirical_map(np.vstack([x, y]) + shift, grid)
        assert np.array_equal(com.assignment, base.assignment)
        assert np.allclose(com.offset - base.offset, shift, rtol=1e-15)
        assert two_sample_test(x + shift, y + shift, grid=grid).statistic == base_stat


def test_map_reports_median_offset_and_uncentred_cost():
    rng = np.random.default_rng(405)
    z = rng.standard_normal((50, 3)) + [5.0, -2.0, 0.5]
    grid = build_grid(make_spec(50, 3, symmetrize=True))
    com = empirical_map(z, grid)
    assert np.array_equal(com.offset, np.median(z, axis=0))
    cost = corank.squared_cost(z, grid)
    assert com.total_cost == cost[np.arange(50), com.assignment].sum()


def test_map_values_are_grid_multiset():
    rng = np.random.default_rng(2)
    grid = build_grid(make_spec(50, 2, symmetrize=True))
    com = empirical_map(rng.standard_normal((50, 2)), grid)
    got = np.array(sorted(map(tuple, com.values)))
    want = np.array(sorted(map(tuple, grid.points)))
    assert np.array_equal(got, want)


def test_ranks_and_signs_bookkeeping():
    spec = GridSpec(n=5, d=2, n_r=2, n_s=2, n_0=1, symmetrize=True)
    grid = build_grid(spec)
    rng = np.random.default_rng(3)
    com = empirical_map(rng.standard_normal((5, 2)), grid)
    rs = ranks_signs(com)
    assert rs.n_r == 2
    assert rs.rank_divisor == 3
    assert set(rs.rank) <= {0.0, 1.0, 2.0}
    # the observation sent to (2/3, 0) carries rank 2 and sign (1, 0)
    outer = np.where(np.abs(com.values[:, 0] - 2 / 3) < 1e-12)[0]
    if outer.size:
        i = outer[0]
        assert rs.rank[i] == 2.0
        assert np.allclose(rs.sign[i], [1.0, 0.0], atol=1e-12)
    # the origin carries rank 0 and the zero sign
    at_origin = np.where(np.linalg.norm(com.values, axis=1) == 0.0)[0]
    assert at_origin.size == 1
    assert rs.rank[at_origin[0]] == 0.0
    assert np.array_equal(rs.sign[at_origin[0]], [0.0, 0.0])


def test_tiebreak_ranks_are_one_half():
    grid = build_grid(make_spec(50, 2, symmetrize=True), tie_break_seed=9)
    rng = np.random.default_rng(4)
    rs = ranks_signs(empirical_map(rng.standard_normal((50, 2)), grid))
    assert (rs.rank == 0.5).sum() == 2
    norms = np.linalg.norm(rs.sign, axis=1)
    assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))


def test_integer_ranks_each_occur_n_s_times():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    rng = np.random.default_rng(5)
    rs = ranks_signs(empirical_map(rng.standard_normal((36, 2)), grid))
    for r in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        assert (rs.rank == r).sum() == 6


def test_ranks_are_exact_not_floating_recovered():
    grid = build_grid(make_spec(100, 2, symmetrize=True))
    rng = np.random.default_rng(6)
    rs = ranks_signs(empirical_map(rng.standard_normal((100, 2)), grid))
    # ranks come from the integer radius bookkeeping, so they are exact
    assert np.array_equal(rs.rank, np.round(rs.rank))
    assert rs.rank.min() >= 1.0 and rs.rank.max() <= 10.0


def test_shift_invariance_is_exact():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    rng = np.random.default_rng(7)
    z = rng.standard_normal((36, 2))
    rs1 = ranks_signs(empirical_map(z, grid))
    rs2 = ranks_signs(empirical_map(z + np.array([17.5, -3.25]), grid))
    assert np.array_equal(rs1.rank, rs2.rank)
    assert np.array_equal(rs1.sign, rs2.sign)


def test_orthogonal_equivariance_with_rotated_grid():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    rng = np.random.default_rng(8)
    z = rng.standard_normal((36, 2))
    o = _rotation(1.3)
    rs1 = ranks_signs(empirical_map(z, grid))
    rs2 = ranks_signs(empirical_map(z @ o.T, rotate_grid(grid, o)))
    assert np.array_equal(rs1.rank, rs2.rank)
    cos1 = rs1.sign @ rs1.sign.T
    cos2 = rs2.sign @ rs2.sign.T
    assert np.abs(cos1 - cos2).max() < 1e-10


def test_gridpoint_uniformity_at_small_n():
    # each gridpoint lands on observation 1 with frequency 1/n
    from scipy import stats as sps

    grid = build_grid(GridSpec(n=4, d=2, n_r=2, n_s=2, n_0=0, symmetrize=True))
    rng = np.random.default_rng(10)
    counts = np.zeros(4)
    for _ in range(4000):
        com = empirical_map(rng.standard_normal((4, 2)), grid)
        counts[com.assignment[0]] += 1
    assert sps.chisquare(counts).pvalue > 0.001


def test_convergence_to_population_map():
    # seeded-average trend check against the closed-form spherical oracle
    def oracle(z):
        r2 = (z * z).sum(axis=1)
        u = chi_sq_cdf(2, r2)
        return (u / np.sqrt(r2))[:, None] * z

    errs = {n: [] for n in (64, 256, 1024)}
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        for n in errs:
            z = rng.standard_normal((n, 2))
            com = empirical_map(z, build_grid(make_spec(n, 2, symmetrize=True)))
            errs[n].append(np.linalg.norm(com.values - oracle(z), axis=1).max())
    means = [np.mean(errs[n]) for n in (64, 256, 1024)]
    assert means[0] > means[1] > means[2]


def test_ranks_signs_csv_dump():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    rng = np.random.default_rng(9)
    com = empirical_map(rng.standard_normal((36, 2)), grid)
    buf = io.StringIO()
    ranks_signs_to_csv(com, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "obs_index,rank,s1,s2,fx1,fx2"
    assert len(lines) == 37
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) in {0.0, 0.5} | set(map(float, range(1, 7)))
