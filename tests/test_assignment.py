import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from corank import (
    InvalidInputError,
    assignment,
    build_grid,
    empirical_map,
    make_law,
    make_spec,
    sample,
    squared_cost,
    two_sample_test,
)
from oracles import brute_force_assignment, solve

LAWS = ("gauss", "t3", "mix2cauchy")


def test_squared_cost_single_point():
    cost = squared_cost([[0.0, 0.0]], [[1.0, 0.0]])
    assert cost.shape == (1, 1)
    assert cost[0, 0] == 1.0


def test_squared_cost_identity_case():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    cost = squared_cost(grid.points, grid)
    assert np.allclose(np.diag(cost), 0.0, atol=1e-14)
    assert cost.min() >= 0.0


def test_squared_cost_hand_example():
    cost = squared_cost([[1.0, 2.0], [3.0, 4.0]], [[0.0, 0.0], [1.0, 1.0]])
    assert np.allclose(cost, [[5.0, 1.0], [25.0, 13.0]], atol=1e-14)


def test_squared_cost_matches_definition():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((8, 3))
    g = rng.standard_normal((8, 3))
    cost = squared_cost(z, g)
    for i in range(8):
        for j in range(8):
            assert cost[i, j] == pytest.approx(((z[i] - g[j]) ** 2).sum(), abs=1e-12)


def test_squared_cost_rejects_mismatch():
    with pytest.raises(InvalidInputError):
        squared_cost(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(InvalidInputError):
        squared_cost(np.zeros((3, 2)), np.zeros((3, 3)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(InvalidInputError):
        squared_cost(bad, np.zeros((2, 2)))


def test_solve_assignment_antidiagonal_zero():
    pairing = solve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert list(pairing.assignment) == [0, 1]
    assert pairing.total_cost == 0.0


def test_solve_assignment_prefers_cheap_diagonal():
    # both permutations: diagonal 5+13=18, swap 1+25=26
    pairing = solve(np.array([[5.0, 1.0], [25.0, 13.0]]))
    assert list(pairing.assignment) == [0, 1]
    assert pairing.total_cost == 18.0


def _outlier_groups(coordinate):
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((30, 2)), rng.standard_normal((30, 2))
    y[0] = [coordinate, 0.0]
    return x, y


def test_an_overflowing_outlier_is_rejected_before_the_cost_is_formed():
    # squared distances reach 2 (1e160)^2: the sample is refused, naming
    # the ratio of its largest coordinate to its median row norm
    with pytest.raises(InvalidInputError, match="median row norm"):
        two_sample_test(*_outlier_groups(1e160))
    assert two_sample_test(*_outlier_groups(1e150)).p_value == 0.5630770851642262
    # more than half the rows at the median leave the sample unscaled
    z = np.zeros((30, 2))
    z[0] = [1e200, 0.0]
    grid = build_grid(make_spec(30, 2))
    with pytest.raises(InvalidInputError, match="from the median"):
        empirical_map(z, grid)
    # the bound takes gridpoint coordinates in [-1, 1], as a ball grid's are
    with pytest.raises(InvalidInputError, match="gridpoint coordinates"):
        empirical_map(z[::-1] / 1e200, replace(grid, points=grid.points * 1e160))


def test_brute_force_trivial_sizes():
    one = brute_force_assignment(np.array([[7.0]]))
    assert list(one.assignment) == [0]
    assert one.total_cost == 7.0
    two = brute_force_assignment(np.array([[3.0, 9.0], [2.0, 4.0]]))
    assert two.total_cost == min(3.0 + 4.0, 9.0 + 2.0)


def test_brute_force_refuses_large_n():
    with pytest.raises(InvalidInputError):
        brute_force_assignment(np.zeros((10, 10)))


def test_solver_matches_brute_force_on_random_7x7():
    rng = np.random.default_rng(14)
    for _ in range(50):
        cost = squared_cost(rng.standard_normal((7, 2)), rng.standard_normal((7, 2)))
        assert solve(cost).total_cost == brute_force_assignment(cost).total_cost


def test_solver_matches_brute_force_on_random_6x6():
    rng = np.random.default_rng(15)
    for _ in range(500):
        cost = rng.random((6, 6))
        assert solve(cost).total_cost == brute_force_assignment(cost).total_cost


def test_shift_leaves_permutation_ranking_unchanged():
    # total cost of every permutation moves by the same constant when the
    # sample is translated, so the cost ordering of permutations is fixed
    rng = np.random.default_rng(321)
    z = rng.standard_normal((5, 2))
    g = rng.standard_normal((5, 2))
    mu = np.array([3.7, -1.2])
    c1 = squared_cost(z, g)
    c2 = squared_cost(z + mu, g)
    perms = list(itertools.permutations(range(5)))
    t1 = np.array([c1[np.arange(5), p].sum() for p in perms])
    t2 = np.array([c2[np.arange(5), p].sum() for p in perms])
    assert np.array_equal(np.argsort(t1), np.argsort(t2))
    spread = (t2 - t1).max() - (t2 - t1).min()
    assert spread < 1e-10


def test_rotation_equivariance():
    rng = np.random.default_rng(322)
    z = rng.standard_normal((6, 2))
    g = rng.standard_normal((6, 2))
    theta = 0.83
    o = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ca = squared_cost(z, g)
    cb = squared_cost(z @ o.T, g @ o.T)
    assert np.abs(ca - cb).max() < 1e-12
    assert np.array_equal(solve(ca).assignment, solve(cb).assignment)


def test_solver_terminates_on_tied_costs():
    z = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    g = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    cost = squared_cost(z, g)
    fast = solve(cost)
    assert sorted(fast.assignment) == [0, 1, 2, 3]
    assert fast.total_cost == brute_force_assignment(cost).total_cost


def test_pairing_cost_consistent_with_assignment():
    rng = np.random.default_rng(323)
    cost = rng.random((8, 8))
    pairing = solve(cost)
    rows, cols = linear_sum_assignment(cost)
    assert pairing.total_cost == pytest.approx(cost[rows, cols].sum(), abs=1e-12)


def _law_cost(law, n, d, seed):
    # d/2 independent draws of the bivariate law side by side
    rng = np.random.default_rng(seed)
    z = np.hstack([sample(make_law(law), n, rng) for _ in range(d // 2)])
    return squared_cost(z, build_grid(make_spec(n, d, symmetrize=True)))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", [249, 250, 400, 1000])
def test_warm_start_matches_dense_solver(n, d, law):
    # 249 stays on the cold path; 250 and up solve a coarse subproblem
    # first (1000 recursively) and must land on the very same bijection
    cost = _law_cost(law, n, d, [n, d, LAWS.index(law)])
    rows, cols = linear_sum_assignment(cost)
    pairing = solve(cost)
    assert np.array_equal(pairing.assignment, cols)
    assert pairing.total_cost == cost[rows, cols].sum()


def test_warm_start_exact_on_tied_integer_costs():
    # integer lattice points with repeats: many optimal bijections
    rng = np.random.default_rng(300)
    cost = squared_cost(rng.integers(-3, 4, (300, 2)), rng.integers(-2, 3, (300, 2)))
    rows, cols = linear_sum_assignment(cost)
    first = solve(cost)
    second = solve(cost)
    assert sorted(first.assignment) == list(range(300))
    assert first.total_cost == cost[rows, cols].sum()
    assert np.array_equal(first.assignment, second.assignment)
    assert first.total_cost == second.total_cost


def test_warm_start_exact_for_any_potential(monkeypatch):
    # the potential only shifts rows and columns: a useless one costs
    # time, never the optimum
    cost = _law_cost("mix2cauchy", 400, 2, 401)
    rows, cols = linear_sum_assignment(cost)
    rng = np.random.default_rng(402)
    calls = []

    def random_potential(c):
        calls.append(c.shape[0])
        return rng.uniform(-1.0, 1.0, c.shape[0]) * c.max()

    monkeypatch.setattr(assignment, "_column_potential", random_potential)
    pairing = solve(cost)
    assert calls == [400]
    assert np.array_equal(pairing.assignment, cols)
    assert pairing.total_cost == cost[rows, cols].sum()


def test_warm_paths_hand_scipy_a_row_and_column_reduced_matrix(monkeypatch):
    # from the subproblem's potential and from a kept one alike, SciPy gets
    # a nonnegative matrix with a zero in every row and every column
    n = 400
    cost = _law_cost("mix2cauchy", n, 2, 403)
    other = _law_cost("mix2cauchy", n, 2, 404)
    kept = assignment._column_duals(other, linear_sum_assignment(other)[1], np.zeros(n))
    cols = linear_sum_assignment(cost)[1]
    seen, subproblems = [], []
    potential_of = assignment._column_potential

    def spy(matrix):
        if matrix.shape[0] >= assignment.WARM_START_MIN_N:
            seen.append(matrix.min() >= 0.0
                        and (matrix == 0.0).any(axis=1).all()
                        and (matrix == 0.0).any(axis=0).all())
        return linear_sum_assignment(matrix)

    def subproblem(c):
        subproblems.append(c.shape[0])
        return potential_of(c)

    monkeypatch.setattr(assignment, "linear_sum_assignment", spy)
    monkeypatch.setattr(assignment, "_column_potential", subproblem)
    for potential, path in ((None, [n]), (kept, [])):
        seen.clear()
        subproblems.clear()
        pairing = solve(cost, potential=potential)
        assert subproblems == path
        assert seen == [True]
        assert np.array_equal(pairing.assignment, cols)


@pytest.fixture(scope="module")
def solver_paths():
    """path -> (cost, potential, subproblems solved) on the five solver paths."""
    n = 400
    cost = _law_cost("mix2cauchy", n, 2, 405)
    other = _law_cost("mix2cauchy", n, 2, 406)
    kept = assignment._column_duals(other, linear_sum_assignment(other)[1], np.zeros(n))
    small = _law_cost("mix2cauchy", 249, 2, 408)
    return {
        "cold": (small, None, []),
        "subproblem": (cost, None, [n]),
        "accepted": (cost, kept, []),
        "turned-down": (cost, _wild(cost), [n]),
        "cold-turned-down": (small, _wild(small), []),
    }


def _wild(cost):
    """A potential far from the duals of ``cost``, which the guard turns down."""
    rng = np.random.default_rng(cost.shape[0] + 7)
    return rng.uniform(-1.0, 1.0, cost.shape[0]) * cost.max()


@pytest.fixture
def subproblems(monkeypatch):
    """Sizes of the coarse subproblems solved, in order."""
    calls = []
    potential_of = assignment._column_potential

    def spy(c):
        calls.append(c.shape[0])
        return potential_of(c)

    monkeypatch.setattr(assignment, "_column_potential", spy)
    return calls


PATHS = ("cold", "subproblem", "accepted", "turned-down", "cold-turned-down")


@pytest.mark.parametrize("path", PATHS)
def test_every_path_returns_the_dense_pairing(path, solver_paths, subproblems):
    cost, potential, expected = solver_paths[path]
    pairing = solve(cost, potential=potential)
    assert subproblems == expected
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(pairing.assignment, cols)
    assert pairing.total_cost == cost[rows, cols].sum()


def test_a_turned_down_potential_stays_subtracted(solver_paths, monkeypatch):
    # below WARM_START_MIN_N the cold solve runs on cost - potential, one
    # column shift that moves every bijection's total alike
    cost, wild, _ = solver_paths["cold-turned-down"]
    solved = []

    def spy(matrix):
        solved.append(matrix.copy())
        return linear_sum_assignment(matrix)

    monkeypatch.setattr(assignment, "linear_sum_assignment", spy)
    pairing = solve(cost, potential=wild)
    assert len(solved) == 1 and solved[0].tobytes() == (cost - wild).tobytes()
    rows, cols = linear_sum_assignment(cost)
    assert np.array_equal(pairing.assignment, cols)
    assert pairing.total_cost == cost[rows, cols].sum()


def test_a_solve_holds_one_cost_matrix(subproblems):
    # the warm path and the subproblem path reduce the caller's matrix in
    # place; a second n x n float64 matrix would put the peak above 2,
    # and an (n/4) x n copy for the subproblem's potential above 1.2
    n = 600
    grid = build_grid(make_spec(n, 2, symmetrize=True))
    z = sample(make_law("mix2cauchy"), n, np.random.default_rng(411))
    peaks = []
    for moved in (z, z + [0.1, 0.0]):  # empty slot, then the slot's gridpoints
        tracemalloc.start()
        try:
            empirical_map(moved, grid)
            peaks.append(tracemalloc.get_traced_memory()[1] / (8 * n * n))
        finally:
            tracemalloc.stop()
    assert subproblems == [n]
    assert max(peaks) < 1.5, peaks
    assert peaks[0] < 1.2, peaks
