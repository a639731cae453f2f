"""Monte Carlo harness: config handling, power studies, null draws."""

import io
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from corank import (
    DegenerateInputError,
    InvalidInputError,
    InvalidSpecError,
    PowerCurve,
    SimConfig,
    SimulationError,
    build_grid,
    elliptical_rank_test,
    hotelling_two_sample,
    make_law,
    make_spec,
    manova_test,
    pillai_manova,
    run_null_distribution,
    run_power_study,
    rank_tests,
    sample,
    sample_covariance,
    scores,
    shift,
    simulation,
    sphericize,
    sphericized_center_outward_test,
    two_sample_test,
)


def small_config(**overrides):
    base = dict(
        study="two_sample",
        law="gauss",
        sizes=(12, 12),
        deltas=(0.0, 0.6),
        methods=("co", "hotelling"),
        score="wilcoxon",
        n_replications=50,
        master_seed=17,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_defaults_and_coercion():
    cfg = SimConfig(sizes=[10, 20], deltas=[0, 1])
    assert cfg.sizes == (10, 20)
    assert cfg.deltas == (0.0, 1.0)
    assert cfg.alpha == 0.05


def test_config_validation():
    with pytest.raises(InvalidSpecError):
        SimConfig(study="anova")
    with pytest.raises(InvalidSpecError):
        SimConfig(study="two_sample", sizes=(10, 10, 10))
    with pytest.raises(InvalidSpecError):
        SimConfig(sizes=(10, 1))
    with pytest.raises(InvalidSpecError):
        SimConfig(deltas=())
    with pytest.raises(InvalidSpecError):
        SimConfig(methods=())
    with pytest.raises(InvalidSpecError):
        SimConfig(study="two_sample", methods=("pillai",))
    with pytest.raises(InvalidSpecError):
        SimConfig(study="manova", sizes=(10, 10, 10), methods=("hotelling",))
    with pytest.raises(InvalidSpecError):
        SimConfig(n_replications=0)
    with pytest.raises(InvalidSpecError):
        SimConfig(alpha=1.0)
    with pytest.raises(InvalidSpecError, match="'bogus'"):
        SimConfig(score="bogus")
    with pytest.raises(InvalidSpecError, match="'bogus'"):
        SimConfig(methods=("co-sphericized",), scatter="bogus")
    for law in ("nosuch", "skewt0"):
        with pytest.raises(InvalidSpecError, match=f"'{law}'"):
            SimConfig(law=law)
    # a field of the wrong type is a spec error naming the field
    for key, value in (("sizes", "50,50"), ("n_replications", "5"),
                       ("deltas", 0.1), ("alpha", "0.05")):
        with pytest.raises(InvalidSpecError, match=key):
            SimConfig(**{key: value})
    # names must be strings and grid sizes integers
    for key, bad in (("n_r", {"n_r": "4", "n_s": "10"}), ("law", {"law": 5}),
                     ("study", {"study": ["x"]}),
                     ("n_r", {"n_r": 4.0, "n_s": 10})):
        with pytest.raises(InvalidSpecError, match=key):
            SimConfig(**bad)


def test_negative_master_seed_is_a_spec_error():
    # it seeds the grid's tie-break draw and every replication's generator
    with pytest.raises(InvalidSpecError, match="master_seed must be >= 0"):
        SimConfig(master_seed=-1)


# a numeric field and a JSON value for it holding a boolean
BOOLEAN_FIELDS = {
    "n_replications": "true", "master_seed": "false", "alpha": "true",
    "sizes": "[true, 5]", "deltas": "[true, 0.5]", "n_r": "true", "n_s": "true",
}


@pytest.mark.parametrize("key", BOOLEAN_FIELDS)
def test_config_rejects_json_booleans_as_numbers(key):
    with pytest.raises(InvalidSpecError, match=key):
        SimConfig.from_dict(json.loads(f'{{"{key}": {BOOLEAN_FIELDS[key]}}}'))


def test_config_rejects_unusable_deltas_and_methods():
    for bad in ((float("nan"),), (0.0, float("inf"))):
        with pytest.raises(InvalidSpecError, match="deltas"):
            SimConfig(deltas=bad)
    # a power curve row is looked up by (method, delta), so each is unique
    with pytest.raises(InvalidSpecError, match="deltas"):
        SimConfig(deltas=(0.0, 0.5, 0.0))
    with pytest.raises(InvalidSpecError, match="methods"):
        SimConfig(methods=("co", "hotelling", "co"))


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidSpecError, match="n_boot"):
        SimConfig.from_dict({"law": "gauss", "n_boot": 99})


def test_config_from_json(tmp_path):
    path = tmp_path / "study.json"
    path.write_text('{"law": "t3", "sizes": [8, 8], "n_replications": 5}')
    cfg = SimConfig.from_json(path)
    assert cfg.law == "t3"
    assert cfg.sizes == (8, 8)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidSpecError):
        SimConfig.from_json(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(InvalidSpecError):
        SimConfig.from_json(arr)


def test_power_curve_structure():
    curve = run_power_study(small_config())
    assert isinstance(curve, PowerCurve)
    assert len(curve.rows) == 4
    for row in curve.rows:
        assert row["n"] == 24
        assert row["N"] == 50
        assert 0.0 <= row["frequency"] <= 1.0
        assert row["frequency"] == row["rejections"] / 50
        f = row["frequency"]
        assert row["mc_se"] == pytest.approx(np.sqrt(f * (1 - f) / 50), abs=1e-15)
    assert curve.frequency("co", 0.6) > curve.frequency("co", 0.0)
    with pytest.raises(KeyError):
        curve.frequency("pillai", 0.0)
    with pytest.raises(KeyError):
        curve.mc_se("co", 0.3)


def test_study_is_deterministic():
    a = run_power_study(small_config())
    b = run_power_study(small_config())
    assert a.rows == b.rows
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.to_csv(buf_a)
    b.to_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_csv_round_trips_frequencies(tmp_path):
    import csv

    curve = run_power_study(small_config(n_replications=20))
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(curve.rows)
    for got, want in zip(rows, curve.rows):
        assert got["method"] == want["method"]
        assert float(got["delta"]) == want["delta"]
        assert float(got["frequency"]) == want["frequency"]
        assert float(got["mc_se"]) == want["mc_se"]
        assert int(got["rejections"]) == want["rejections"]


def test_all_methods_hold_level_under_gaussian_null():
    cfg = SimConfig(
        study="two_sample",
        law="gauss",
        sizes=(30, 30),
        deltas=(0.0,),
        methods=("co", "co-sphericized", "elliptical", "hotelling"),
        score="wilcoxon",
        n_replications=600,
        master_seed=111,
    )
    curve = run_power_study(cfg)
    band = 3.0 * np.sqrt(0.05 * 0.95 / 600)
    for method in cfg.methods:
        assert abs(curve.frequency(method, 0.0) - 0.05) < band, method


def test_manova_study_runs_pillai():
    cfg = SimConfig(
        study="manova",
        law="gauss",
        sizes=(10, 10, 12),
        deltas=(0.0,),
        methods=("co", "pillai"),
        n_replications=25,
        master_seed=19,
    )
    curve = run_power_study(cfg)
    assert {row["method"] for row in curve.rows} == {"co", "pillai"}


def test_rank_test_beats_hotelling_on_heavy_tails(mix2cauchy_power):
    co_f, co_se = mix2cauchy_power["co"]
    el_f, el_se = mix2cauchy_power["elliptical"]
    ht_f, ht_se = mix2cauchy_power["hotelling"]
    assert co_f - ht_f > 2.0 * np.hypot(co_se, ht_se)
    assert co_f - el_f > 2.0 * np.hypot(co_se, el_se)


def test_null_distribution_draws():
    def stats_for(seed):
        cfg = SimConfig(
            study="two_sample",
            law="gauss",
            sizes=(20, 20),
            deltas=(0.4,),
            methods=("co",),
            n_replications=300,
            master_seed=seed,
        )
        return run_null_distribution(cfg)

    a = stats_for(91)
    b = stats_for(92)
    assert list(a) == ["co"]
    assert a["co"].shape == (300,)
    # the delta in the config must not leak into the null draws
    assert sps.ks_2samp(a["co"], b["co"]).pvalue > 0.01


def test_null_distribution_ignores_deltas():
    base = dict(
        study="two_sample",
        law="t3",
        sizes=(10, 10),
        methods=("co", "elliptical"),
        n_replications=8,
        master_seed=23,
    )
    a = run_null_distribution(SimConfig(deltas=(0.0,), **base))
    b = run_null_distribution(SimConfig(deltas=(5.0,), **base))
    assert set(a) == {"co", "elliptical"}
    for m in a:
        assert np.array_equal(a[m], b[m])


def test_null_draws_are_the_public_calls_statistics():
    # draw r is the statistic of the public call on replication r's
    # unshifted bases, whatever deltas the config names
    cfg = SimConfig(
        study="two_sample",
        law="gauss",
        sizes=(16, 18),
        deltas=(0.3, 0.6),
        methods=("co", "elliptical"),
        n_replications=4,
        master_seed=29,
    )
    draws = run_null_distribution(cfg)
    law = make_law(cfg.law)
    # n_0 = 4 centre points, so the grid depends on the tie-break seed
    grid = build_grid(make_spec(34, 2, symmetrize=True), tie_break_seed=29)
    for r in range(4):
        rng = np.random.default_rng([29, r])
        x, y = (sample(law, nk, rng) for nk in cfg.sizes)
        assert draws["co"][r] == two_sample_test(x, y, grid=grid).statistic
        assert draws["elliptical"][r] == elliptical_rank_test([x, y]).statistic


def test_odd_explicit_n_s_turns_symmetrization_off():
    # the rule the command line's test subcommands use
    cfg = SimConfig(sizes=(5, 5), n_r=2, n_s=5, n_replications=1)
    draws = run_null_distribution(cfg)
    rng = np.random.default_rng([cfg.master_seed, 0])
    x, y = (sample(make_law(cfg.law), nk, rng) for nk in cfg.sizes)
    want = two_sample_test(x, y, grid=build_grid(make_spec(10, 2, n_r=2, n_s=5)))
    assert draws["co"][0] == want.statistic


def test_single_replication_shape():
    cfg = small_config(n_replications=1, deltas=(0.0,), methods=("co",))
    stats = run_null_distribution(cfg)
    assert stats["co"].shape == (1,)


def test_failing_replication_reports_seed(monkeypatch):
    def failing_test(*args, **kwargs):
        raise InvalidInputError("injected failure")

    # the registry looks the "co" body up in the module at call time
    monkeypatch.setattr(simulation, "co_test", failing_test)
    cfg = small_config(master_seed=3)
    with pytest.raises(SimulationError, match=r"replication 0 \(seed \[3, 0\]\) "
                       r"failed: co at delta 0\.0: injected failure"):
        run_power_study(cfg)
    # a draw is checked and pooled once, before any method runs on it
    monkeypatch.setattr(simulation, "validate_groups", failing_test)
    with pytest.raises(SimulationError, match=r"^replication 0 \(seed \[3, 0\]\) "
                       r"failed: injected failure$"):
        run_power_study(cfg)


# replication 2 draws a sample covariance with eigenvalues 58 and 1.3e14
DEGENERATE_DRAW = SimConfig(
    law="mix2cauchy", sizes=(200, 200), deltas=(0.0, 0.12, 0.24),
    methods=("co", "elliptical", "hotelling"), n_replications=4,
    master_seed=70001444,
)


def test_study_survives_a_degenerate_draw():
    rows = run_power_study(DEGENERATE_DRAW).rows
    co_only = run_power_study(replace(DEGENERATE_DRAW, methods=("co",))).rows
    assert rows[:3] == co_only
    failed = [row for row in rows if row["N"] < 4]
    assert {row["method"] for row in failed} == {"elliptical", "hotelling"}
    for row in failed:
        assert row["frequency"] == row["rejections"] / row["N"]
    draws = run_null_distribution(DEGENERATE_DRAW)
    assert np.isnan(draws["elliptical"]).sum() == 1
    assert not np.isnan(draws["co"]).any()


def test_an_error_on_one_draw_names_that_draw(monkeypatch):
    # the fourth assignment is co's at replication 1, delta 0.6, in the
    # study's order, however the replications are blocked
    assign = rank_tests.empirical_map
    for block_bytes in (simulation.BLOCK_BYTES, 1):
        calls = []

        def failing_fourth(sample, grid):
            calls.append(None)
            if len(calls) == 4:
                raise InvalidInputError("injected failure")
            return assign(sample, grid)

        monkeypatch.setattr(rank_tests, "empirical_map", failing_fourth)
        monkeypatch.setattr(simulation, "BLOCK_BYTES", block_bytes)
        with pytest.raises(SimulationError, match=r"^replication 1 \(seed \[17, 1\]\) "
                           r"failed: co at delta 0\.6: injected failure$"):
            run_power_study(small_config())


def test_a_method_failing_every_draw_raises(monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateInputError("injected degenerate draw")

    monkeypatch.setattr(simulation, "_hotelling", degenerate)
    with pytest.raises(SimulationError, match=r"hotelling at delta 0\.0: injected"):
        run_power_study(small_config(n_replications=3))


def test_power_study_scores_its_grid_once(monkeypatch):
    # every co and co-sphericized call of a study reads one vdw table
    calls = []
    quantile = scores.chi_sq_quantile
    monkeypatch.setattr(
        scores, "chi_sq_quantile", lambda d, p: calls.append(d) or quantile(d, p)
    )
    designs = []
    standardize = rank_tests.standardize_design
    monkeypatch.setattr(
        rank_tests, "standardize_design", lambda c: designs.append(c) or standardize(c)
    )
    run_power_study(SimConfig(
        law="t3", sizes=(25, 25), deltas=(0.0, 0.3, 0.6),
        methods=("co", "co-sphericized"), score="vdw", n_replications=4,
        master_seed=5,
    ))
    assert len(calls) == 1
    assert len(designs) <= 1  # none when an earlier call made this design


def test_each_method_runs_every_delta_of_a_replication_in_turn(monkeypatch):
    # a method's assignments on one block follow each other on the study
    # grid, replication by replication and delta by delta, so each starts
    # warm from the one before
    cfg = small_config(deltas=(0.0, 0.3, 0.6), methods=("co", "co-sphericized"),
                       n_replications=2)
    # the spy records every sample the per-draw assignment is given
    calls = []
    assign = rank_tests.empirical_map

    def spy(sample, grid):
        calls.append(np.array(sample))
        return assign(sample, grid)

    monkeypatch.setattr(rank_tests, "empirical_map", spy)
    statistics, _ = simulation._replicate(cfg)
    monkeypatch.undo()
    grid = build_grid(make_spec(24, 2, symmetrize=True), tie_break_seed=17)
    pooled = {}
    for r in range(2):
        rng = np.random.default_rng([cfg.master_seed, r])
        x, y = (sample(make_law(cfg.law), nk, rng) for nk in cfg.sizes)
        for j, delta in enumerate(cfg.deltas):
            pooled[r, delta] = np.vstack([x, y + delta])
            # the record keeps its (method, delta, replication) indices
            assert statistics[0, j, r] == two_sample_test(x, y + delta, grid=grid).statistic
    # method -> the sample its assignment sees for a pooled draw
    seen = {
        "co": lambda p: p,
        "co-sphericized": lambda p: sphericize(p, sample_covariance(p), root="cholesky"),
    }
    want = [seen[m](pooled[r, delta]) for m in cfg.methods for r in range(2)
            for delta in cfg.deltas]
    assert len(calls) == len(want)
    for got, expected in zip(calls, want):
        assert np.array_equal(got, expected)


# (study, method) -> the public test a study's record must reproduce
PUBLIC_TESTS = {
    ("two_sample", "co"): lambda g, cfg, grid: two_sample_test(
        g[0], g[1], cfg.score, grid=grid),
    ("two_sample", "co-sphericized"): lambda g, cfg, grid:
        sphericized_center_outward_test(g, cfg.score, cfg.scatter, grid=grid),
    ("two_sample", "elliptical"): lambda g, cfg, grid: elliptical_rank_test(g, cfg.score),
    ("two_sample", "hotelling"): lambda g, cfg, grid: hotelling_two_sample(g[0], g[1]),
    ("manova", "co"): lambda g, cfg, grid: manova_test(g, cfg.score, grid=grid),
    ("manova", "co-sphericized"): lambda g, cfg, grid:
        sphericized_center_outward_test(g, cfg.score, cfg.scatter, grid=grid),
    ("manova", "elliptical"): lambda g, cfg, grid: elliptical_rank_test(g, cfg.score),
    ("manova", "pillai"): lambda g, cfg, grid: pillai_manova(g),
}


def test_every_registered_method_is_named_here():
    assert set(PUBLIC_TESTS) == {
        (study, method) for study, methods in simulation.METHODS.items()
        for method in methods
    }


@pytest.mark.parametrize("scatter", ["sample", "tyler"])
@pytest.mark.parametrize("study, sizes", [("two_sample", (14, 11)),
                                          ("manova", (10, 12, 9))])
def test_a_study_records_what_the_public_tests_return(study, sizes, scatter):
    # the study checks and pools each draw once and runs each method's
    # body on it; the public test runs its own check, then the same body
    cfg = SimConfig(study=study, law="t3", sizes=sizes, deltas=(0.0, 0.4, 0.9),
                    methods=tuple(simulation.METHODS[study]), score="vdw",
                    scatter=scatter, n_replications=3, master_seed=41)
    statistics, p_values = simulation._replicate(cfg)
    law = make_law(cfg.law)
    grid = build_grid(make_spec(sum(sizes), law.d, symmetrize=True), tie_break_seed=41)
    for r in range(cfg.n_replications):
        rng = np.random.default_rng([cfg.master_seed, r])
        bases = [sample(law, nk, rng) for nk in sizes]
        for j, delta in enumerate(cfg.deltas):
            groups = bases[:-1] + [shift(bases[-1], delta)]
            for i, method in enumerate(cfg.methods):
                want = PUBLIC_TESTS[study, method](groups, cfg, grid)
                assert statistics[i, j, r] == want.statistic, (method, delta, r)
                assert p_values[i, j, r] == want.p_value, (method, delta, r)


# a two-sample power study and a manova null study with every method
BLOCKED_STUDIES = {
    "power": SimConfig(law="t3", sizes=(12, 12), deltas=(0.0, 0.5),
                       methods=("co", "co-sphericized", "elliptical", "hotelling"),
                       score="vdw", n_replications=5, master_seed=3),
    "manova-null": SimConfig(study="manova", law="gauss", sizes=(8, 8, 8),
                             methods=("co", "co-sphericized", "elliptical", "pillai"),
                             n_replications=5, master_seed=4),
    "degenerate": DEGENERATE_DRAW,
}


@pytest.mark.parametrize("name", BLOCKED_STUDIES)
def test_blocks_of_replications_keep_the_record(name, monkeypatch):
    # one block of every replication, or one replication per block
    cfg = BLOCKED_STUDIES[name]
    whole = simulation._replicate(cfg)
    assert np.isnan(whole[0]).any() == (name == "degenerate")
    # the replications of a range are those columns of the whole record
    part = simulation._replicate(cfg, reps=range(1, 3))
    monkeypatch.setattr(simulation, "BLOCK_BYTES", 1)
    apart = simulation._replicate(cfg)
    for got, want, cut in zip(apart, whole, part):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(cut, want[..., 1:3], equal_nan=True)


@pytest.mark.parametrize("scatter", ["sample", "tyler"])
@pytest.mark.parametrize("study, sizes", [("two_sample", (14, 11)),
                                          ("manova", (10, 12, 9))])
def test_a_failing_draw_leaves_its_neighbours_in_the_stack_alone(study, sizes, scatter):
    law = make_law("t3")
    rng = np.random.default_rng(43)
    draws = [np.vstack([sample(law, nk, rng) for nk in sizes]) for _ in range(3)]
    draws[1][:, 1] = 0.5  # a constant coordinate: every scatter is singular
    stack = np.stack(draws)
    stack.setflags(write=False)
    grid = build_grid(make_spec(sum(sizes), 2, symmetrize=True))
    for method, body in simulation.METHODS[study].items():
        result, errors = body(stack, sizes, "vdw", scatter, grid)
        # only co, which does not read a scatter, ranks the singular draw
        assert set(errors) == (set() if method == "co" else {1}), method
        assert np.isnan(result.statistic[1]) == (method != "co")
        for k in (0, 2):
            alone, none = body(stack[k:k + 1], sizes, "vdw", scatter, grid)
            assert not none
            assert result.statistic[k] == alone.statistic[0], (method, k)
            assert result.p_value[k] == alone.p_value[0], (method, k)
