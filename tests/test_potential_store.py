"""The last solve kept in one slot to warm-start the next one.

A potential only shifts columns of the cost matrix, so whatever the slot
holds, every assignment must equal SciPy's dense optimum on the same
centred cost matrix; these tests check that, that the neighbour guess
offered from the kept sample is the relaxation it claims to be, that
only a call on the kept gridpoints guesses from it, and that the
solver's guard turns down a guess from a sample of another shape while
the slot moves on to the latest solve.  The slot is emptied before and
after every test (``conftest.empty_store``).
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from corank import (
    SimConfig,
    assignment,
    build_grid,
    center_outward,
    empirical_map,
    make_law,
    make_spec,
    run_power_study,
    sample,
    sample_covariance,
    shift,
    sphericize,
    squared_cost,
    two_sample_test,
)
from oracles import rotate_grid, solve

LAWS = ("gauss", "t3", "mix2cauchy")


def _store(grid):
    # the slot (points, z, assignment, table) if it holds the grid's points
    latest = center_outward._latest
    if latest is None or not np.array_equal(latest[0], grid.points):
        return None
    return latest


def _draw(law, n, d, seed):
    # d/2 independent draws of the bivariate law side by side
    rng = np.random.default_rng(seed)
    return np.hstack([sample(make_law(law), n, rng) for _ in range(d // 2)])


def _dense(z, grid, offset):
    return linear_sum_assignment(squared_cost(z - offset, grid))[1]


def _jacobi_duals(cost, assigned, v0):
    # the full-scan Bellman-Ford that _column_duals restricts to moved rows
    m = cost.shape[0]
    matched = cost[np.arange(m), assigned]
    v = np.array(v0, dtype=float)
    for _ in range(m):
        u = matched - v[assigned]
        relaxed = np.minimum(v, (cost - u[:, None]).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    return v


def _cost_guess(cost, assigned, points, passes):
    # the neighbour relaxation read off the cost matrix itself
    m = cost.shape[0]
    near = cKDTree(points).query(points, k=center_outward.NEIGHBOURS + 1)[1]
    owner = np.empty(m, dtype=np.intp)
    owner[assigned] = np.arange(m)
    rows = owner[near]
    step = cost[rows, np.arange(m)[:, None]] - cost[rows, near]
    v = np.zeros(m)
    for _ in range(passes):
        v = np.minimum(v, (step + v[near]).min(axis=1))
    return v


@pytest.mark.parametrize("m", [5, 60, 100, 250])
def test_column_duals_equal_full_scan_and_are_exact(m):
    rng = np.random.default_rng(m)
    for law in LAWS:
        cost = squared_cost(_draw(law, m, 2, m), rng.standard_normal((m, 2)))
        assigned = linear_sum_assignment(cost)[1]
        for v0 in (np.zeros(m), rng.uniform(-1.0, 1.0, m) * cost.max()):
            v = assignment._column_duals(cost, assigned, v0)
            assert np.array_equal(v, _jacobi_duals(cost, assigned, v0))
            u = cost[np.arange(m), assigned] - v[assigned]
            reduced = cost - u[:, None] - v
            assert reduced.min() >= -1e-9 * cost.max()
            assert np.abs(reduced[np.arange(m), assigned]).max() <= 1e-9 * cost.max()


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("m", [250, 400, 1000])
def test_recovery_from_the_neighbour_guess_is_exact(m, d, law):
    # the slot's sample on a grid, as the next call guesses from it
    grid = build_grid(make_spec(m, d, symmetrize=True))
    empirical_map(_draw(law, m, d, [m, d, 91]), grid)
    _, z, assigned, _ = _store(grid)
    cost = squared_cost(z, grid)
    table = center_outward._neighbour_table(grid.points)
    guess = center_outward._neighbour_guess(z, assigned, table)
    tol = 1e-12 * np.abs(cost).max()
    # the same relaxation as on the cost matrix, without forming it
    passes = center_outward.GUESS_PASSES
    capped = _cost_guess(cost, assigned, grid.points, passes)
    assert np.abs(guess - capped).max() <= tol
    # the cap binds: one more pass would still lower the guess
    assert (_cost_guess(cost, assigned, grid.points, passes + 1) < capped).any()
    v = assignment._column_duals(cost, assigned, guess)
    u = cost[np.arange(m), assigned] - v[assigned]
    reduced = cost - u[:, None] - v
    assert reduced.min() >= -tol
    assert np.abs(reduced[np.arange(m), assigned]).max() <= tol
    from_zero = assignment._column_duals(cost, assigned, np.zeros(m))
    scale = np.abs(from_zero).max()
    assert np.abs(v - from_zero).max() <= 1e-9 * scale
    # the guess lies between zero and the exact duals it starts from
    assert guess.max() <= 0.0 and (guess - from_zero).min() >= -1e-9 * scale


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", [250, 400, 1000])
def test_reused_grid_matches_dense_solver(n, d):
    # the laws take turns on one grid, so each call sees the potentials
    # the earlier ones left, same-law and cross-law alike
    grid = build_grid(make_spec(n, d, symmetrize=True))
    for k, law in enumerate(LAWS * 2):
        z = _draw(law, n, d, [n, d, k])
        z[n // 2:] += 0.1 * k
        com = empirical_map(z, grid)
        assert np.array_equal(com.assignment, _dense(z, grid, com.offset))
    assert _store(grid)[2] is com.assignment


def test_any_potential_gives_the_optimum(monkeypatch):
    cost = squared_cost(_draw("mix2cauchy", 400, 2, 11),
                        build_grid(make_spec(400, 2, symmetrize=True)))
    cols = linear_sum_assignment(cost)[1]
    exact = assignment._column_duals(cost, cols, np.zeros(400))
    rng = np.random.default_rng(11)
    counts = _count_calls(monkeypatch)
    # with the guard, and with every potential let through to the finish
    for keep in (assignment.KEEP_RATIO, np.inf):
        monkeypatch.setattr(assignment, "KEEP_RATIO", keep)
        for v in (None, exact, np.zeros(400),
                  rng.uniform(-1.0, 1.0, 400) * cost.max()):
            before = counts["subproblem"]
            pairing = solve(cost, potential=v)
            assert np.array_equal(pairing.assignment, cols)
            if keep == np.inf:
                # a given potential starts the finish; no subproblem runs
                assert counts["subproblem"] - before == (v is None)


def test_poisoned_store_still_gives_the_optimum():
    # a far-off sample under a random, non-optimal pairing, and a store
    # filled by co-sphericized calls
    n = 400
    grid = build_grid(make_spec(n, 2, symmetrize=True))
    rng = np.random.default_rng(12)
    z = _draw("mix2cauchy", n, 2, 13)
    center_outward._latest = (
        grid.points, rng.uniform(-1.0, 1.0, (n, 2)) * 1e6, rng.permutation(n), None)
    com = empirical_map(z, grid)
    assert np.array_equal(com.assignment, _dense(z, grid, com.offset))

    center_outward._latest = None
    for k in range(3):
        w = _draw("mix2cauchy", n, 2, [14, k])
        empirical_map(sphericize(w, sample_covariance(w), root="cholesky"), grid)
    assert _store(grid) is not None
    for k in range(3):
        w = _draw("mix2cauchy", n, 2, [15, k])
        com = empirical_map(w, grid)
        assert np.array_equal(com.assignment, _dense(w, grid, com.offset))


def test_study_does_not_depend_on_replication_order():
    config = SimConfig(law="mix2cauchy", sizes=(150, 150), deltas=(0.0, 0.3),
                       methods=("co",), n_replications=6, master_seed=21)
    forward = [row["rejections"] for row in run_power_study(config).rows]
    law = make_law(config.law)
    grid = build_grid(make_spec(300, 2, symmetrize=True), tie_break_seed=21)
    backward = np.zeros(2, dtype=int)
    for rep in reversed(range(config.n_replications)):
        rng = np.random.default_rng([config.master_seed, rep])
        x, y = sample(law, 150, rng), sample(law, 150, rng)
        for j, delta in enumerate(config.deltas):
            backward[j] += two_sample_test(x, shift(y, delta), grid=grid).p_value < 0.05
    assert _store(grid) is not None
    assert forward == backward.tolist()


def _count_calls(monkeypatch):
    # spies on the subproblem and on the guess from the slot's sample
    counts = {"subproblem": 0, "guess": 0}

    def spy(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(assignment, "_column_potential",
                        spy("subproblem", assignment._column_potential))
    monkeypatch.setattr(center_outward, "_neighbour_guess",
                        spy("guess", center_outward._neighbour_guess))
    return counts


def test_default_calls_at_one_size_run_the_subproblem_once(monkeypatch):
    counts = _count_calls(monkeypatch)
    law = make_law("gauss")
    rng = np.random.default_rng(31)
    groups = [sample(law, 200, rng) for _ in range(4)]
    for x, y in (groups[:2], groups[2:]):
        two_sample_test(x, y)  # builds its own grid
    # the first call runs the subproblem, the second starts from its sample
    assert counts == {"subproblem": 1, "guess": 1}
    table = _store(build_grid(make_spec(400, 2, symmetrize=True)))[3]
    assert table is not None
    # a grid built separately on the same points starts from the latest
    # sample at once, and the neighbour table is kept with the points
    grid = build_grid(make_spec(400, 2, symmetrize=True))
    for x, y in (groups[:2], groups[2:]) * 2:
        two_sample_test(x, y, grid=grid)
    assert counts == {"subproblem": 1, "guess": 5}
    assert _store(grid)[3] is table


def test_guard_turns_down_a_potential_of_another_shape(monkeypatch):
    n = 400
    grid = build_grid(make_spec(n, 2, symmetrize=True))
    for k in range(2):
        empirical_map(_draw("gauss", n, 2, [81, k]), grid)
    counts = _count_calls(monkeypatch)
    w = _draw("mix2cauchy", n, 2, 82)
    w = sphericize(w, sample_covariance(w), root="cholesky")
    com = empirical_map(w, grid)
    assert np.array_equal(com.assignment, _dense(w, grid, com.offset))
    assert counts == {"subproblem": 1, "guess": 1}
    # the turned-down call's sample is the latest all the same, so the
    # next Gaussian call starts from it and is turned down in turn
    assert _store(grid)[2] is com.assignment
    z = _draw("gauss", n, 2, 83)
    com = empirical_map(z, grid)
    assert np.array_equal(com.assignment, _dense(z, grid, com.offset))
    assert counts == {"subproblem": 2, "guess": 2}


def test_a_law_switch_costs_one_subproblem(monkeypatch):
    # sphericized shifts of one heavy-tailed draw after Gaussian calls,
    # as in one replication of a co-sphericized study
    n = 400
    grid = build_grid(make_spec(n, 2, symmetrize=True))
    for k in range(2):
        empirical_map(_draw("gauss", n, 2, [84, k]), grid)
    counts = _count_calls(monkeypatch)
    base = _draw("mix2cauchy", n, 2, 85)
    for k in range(7):
        w = base.copy()
        w[n // 2:] += 0.05 * k
        w = sphericize(w, sample_covariance(w), root="cholesky")
        com = empirical_map(w, grid)
        assert np.array_equal(com.assignment, _dense(w, grid, com.offset))
    # only the first call, guessed from a Gaussian sample, was turned down
    assert counts == {"subproblem": 1, "guess": 7}


def test_duplicated_rows_never_meet_the_store():
    rng = np.random.default_rng(41)
    x = np.round(rng.standard_normal((150, 2)), 1)
    y = np.round(rng.standard_normal((150, 2)), 1)
    assert np.unique(np.vstack([x, y]), axis=0).shape[0] < 300
    fresh = two_sample_test(x, y, grid=build_grid(make_spec(300, 2, symmetrize=True)))
    grid = build_grid(make_spec(300, 2, symmetrize=True))
    law = make_law("t3")
    for _ in range(3):
        two_sample_test(sample(law, 150, rng), sample(law, 150, rng), grid=grid)
    kept = center_outward._latest
    assert _store(grid) is kept is not None
    again = two_sample_test(x, y, grid=grid)
    assert again.statistic == fresh.statistic
    assert again.p_value == fresh.p_value
    assert center_outward._latest is kept


def test_grids_with_equal_points_share_one_store(monkeypatch):
    grid = build_grid(make_spec(300, 2, symmetrize=True))
    z = _draw("gauss", 300, 2, 51)
    empirical_map(z, grid)
    assert _store(grid) is not None
    assert _store(build_grid(grid.spec)) is _store(grid)
    # a separately built grid with equal points guesses from the slot
    counts = _count_calls(monkeypatch)
    com = empirical_map(z + 0.01, build_grid(grid.spec))
    assert np.array_equal(com.assignment, _dense(z + 0.01, grid, com.offset))
    assert counts == {"subproblem": 0, "guess": 1}
    assert _store(grid)[2] is com.assignment
    # other points, rotated or with other tie-break points, replace the slot
    c, s = np.cos(0.1), np.sin(0.1)
    rotated = rotate_grid(grid, [[c, -s], [s, c]])
    other = build_grid(grid.spec, tie_break_seed=1)
    assert not np.array_equal(other.points, grid.points)
    for k, new in enumerate((rotated, other)):
        assert _store(new) is None
        w = _draw("gauss", 300, 2, [52, k])
        com = empirical_map(w, new)
        assert np.array_equal(com.assignment, _dense(w, new, com.offset))
        assert _store(new)[2] is com.assignment
        assert _store(grid) is None
    assert counts == {"subproblem": 2, "guess": 1}


def test_alternating_gridpoint_sets_run_the_subproblem_on_every_switch(monkeypatch):
    # A and B have one shape but other tie-break points
    a = build_grid(make_spec(300, 2, symmetrize=True))
    b = build_grid(a.spec, tie_break_seed=1)
    assert not np.array_equal(a.points, b.points)
    counts = _count_calls(monkeypatch)
    z = _draw("gauss", 300, 2, 53)
    for k, grid in enumerate((a, b, a)):
        w = z + 0.01 * k
        com = empirical_map(w, grid)
        assert np.array_equal(com.assignment, _dense(w, grid, com.offset))
    assert counts == {"subproblem": 3, "guess": 0}
    # a call on the same points as the last takes the guess path
    com = empirical_map(z + 0.03, a)
    assert np.array_equal(com.assignment, _dense(z + 0.03, a, com.offset))
    assert counts == {"subproblem": 3, "guess": 1}


def test_extreme_spreads_on_one_grid_neither_raise_nor_warn():
    # a rescaling never changes the optimal assignment; unnormalized, the
    # squared costs lose every deciding digit at 1e-160 or 1e150, and a
    # potential kept from one extreme spoils the solves at another
    grid = build_grid(make_spec(300, 2, symmetrize=True))
    rng = np.random.default_rng(71)
    samples = [rng.standard_normal((300, 2)) for _ in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in samples:
            want = _dense(u, grid, np.median(u, axis=0))
            for scale in (2.0 ** -900, 1e-300, 1e-200, 1e-160, 1e-12, 1.0, 1e12, 1e150):
                com = empirical_map(u * scale, grid)
                assert np.array_equal(com.assignment, want)


def test_huge_spread_is_ranked():
    # 2**900 squared overflows, so only the normalized cost is finite;
    # the unscaled total cost reads inf without a warning
    grid = build_grid(make_spec(300, 2, symmetrize=True))
    u = np.random.default_rng(72).standard_normal((300, 2))
    want = _dense(u, grid, np.median(u, axis=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            com = empirical_map(u * 2.0 ** 900, grid)
            assert np.array_equal(com.assignment, want)
            assert com.total_cost == np.inf


@pytest.mark.parametrize("n, n_equal", [(20, 11), (300, 151)])
def test_zero_median_row_norm_is_not_divided_by(n, n_equal):
    # more than half the rows equal the median, so the centred sample's
    # median row norm is 0; at n = 300 the repeats take the bypass
    rng = np.random.default_rng(n)
    z = rng.standard_normal((n, 2))
    z[:n_equal] = [0.25, -1.5]
    grid = build_grid(make_spec(n, 2, symmetrize=True))
    com = empirical_map(z, grid)
    assert np.array_equal(com.offset, [0.25, -1.5])
    cost = squared_cost(z - com.offset, grid)
    dense = linear_sum_assignment(cost)[1]
    got = cost[np.arange(n), com.assignment].sum()
    # tied rows may be paired in another order, summed in another order
    assert got == pytest.approx(cost[np.arange(n), dense].sum(), rel=1e-12)
    x, y = z[: n // 2], z[n // 2:]
    assert np.isfinite(two_sample_test(x, y, grid=grid).statistic)


def _run_threads(jobs):
    # runs the jobs with frequent switches; returns what they raised
    errors = []

    def run(job):
        try:
            job()
        except Exception as err:  # a raise is a failure, reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(job,)) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_threads_sharing_a_grid_get_the_optimum():
    # concurrent calls may guess from any earlier sample or build the
    # neighbour table twice, never lose an optimum, and never raise
    n = 300
    grid = build_grid(make_spec(n, 2, symmetrize=True))
    samples = [_draw(law, n, 2, [61, k]) for k, law in enumerate(LAWS * 4)]
    want = [_dense(z, grid, np.median(z, axis=0)) for z in samples]
    got = [None] * len(samples)

    def work(j):
        for k in range(j, len(samples), 4):
            got[k] = empirical_map(samples[k], grid).assignment

    assert _run_threads([lambda j=j: work(j) for j in range(4)]) == []
    for k in range(len(samples)):
        assert np.array_equal(got[k], want[k])
    assert _store(grid) is not None


def test_threads_building_their_own_grids_get_the_optimum():
    # each call builds its grid from a spec; the sizes take turns, so the
    # slot moves to other gridpoints while other threads use it
    sizes = [250 + k for k in range(6)]
    calls = [(n, _draw(law, n, 2, [62, n, k]))
             for k, law in enumerate(LAWS) for n in sizes]
    want = [_dense(z, build_grid(make_spec(n, 2, symmetrize=True)),
                   np.median(z, axis=0)) for n, z in calls]
    got = [None] * len(calls)

    def work(j):
        for k in range(j, len(calls), 4):
            n, z = calls[k]
            got[k] = empirical_map(z, make_spec(n, 2, symmetrize=True)).assignment

    assert _run_threads([lambda j=j: work(j) for j in range(4)]) == []
    for k in range(len(calls)):
        assert np.array_equal(got[k], want[k])

