"""End-to-end command line checks.

Most checks run in-process via main(). The entry-point and import-cost
checks at the end run in subprocesses, with PYTHONPATH set so that they
import the same corank as this process.
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

import corank
from corank import RanksSigns
from corank.cli import build_parser, main
from corank.rank_tests import k_sample_statistic
from corank.simulation import METHODS


def write_csv(path, header, matrix, labels=None):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for i, row in enumerate(matrix):
            cells = [repr(float(v)) for v in row]
            if labels is not None:
                cells.insert(0, labels[i])
            fh.write(",".join(cells) + "\n")


@pytest.fixture
def two_files(tmp_path):
    rng = np.random.default_rng(60)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], rng.standard_normal((12, 2)))
    write_csv(b, ["y1", "y2"], rng.standard_normal((14, 2)) + 0.4)
    return str(a), str(b)


def test_two_sample_json_schema(two_files, tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(
        ["two-sample", "--input", *two_files, "--json", "--seed", "7",
         "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["method"] == "co-two-sample"
    assert payload["n"] == 26
    assert payload["d"] == 2
    assert payload["n_R"] * payload["n_S"] + payload["n_0"] == 26
    assert payload["score"] == "wilcoxon"
    assert payload["seed"] == 7
    assert payload["statistic"] >= 0.0
    assert 0.0 < payload["p_value"] <= 1.0
    assert payload["dof"] == 2


def test_two_sample_text_output(two_files, capsys):
    assert main(["two-sample", "--input", *two_files]) == 0
    text = capsys.readouterr().out
    assert "method:    co-two-sample" in text
    assert "p-value:" in text


def test_method_plumbing(two_files, capsys):
    for method, label in [
        ("hotelling", "hotelling"),
        ("elliptical", "elliptical-two-sample"),
        ("co-sphericized", "co-sphericized-two-sample"),
    ]:
        code = main(
            ["two-sample", "--input", *two_files, "--method", method, "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["method"] == label


def test_grid_flags_that_cannot_factor_the_sample_fail_for_every_method(tmp_path, capsys):
    # the grid is built before any method runs, so 3 x 3 cannot hold 40 rows
    # even for hotelling, which ranks nothing
    rng = np.random.default_rng(64)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], rng.standard_normal((20, 2)))
    write_csv(b, ["y1", "y2"], rng.standard_normal((20, 2)))
    code = main(["two-sample", "--input", str(a), str(b), "--method", "hotelling",
                 "--nr", "3", "--ns", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "corank: error:" in captured.err


def test_json_names_the_null_law(two_files, capsys):
    # hotelling's p-value comes from an F law with dof [d, n - 1 - d]
    for method, law, dof in [("hotelling", "f", [2, 23]), ("co", "chi2", 2)]:
        code = main(
            ["two-sample", "--input", *two_files, "--method", method, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["null_dist"] == law
        assert payload["dof"] == dof


def test_two_sample_matches_library(two_files, capsys):
    assert main(["two-sample", "--input", *two_files, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    x = corank.cli.load_csv(two_files[0])
    y = corank.cli.load_csv(two_files[1])
    res = corank.two_sample_test(x, y, "wilcoxon")
    assert payload["statistic"] == pytest.approx(res.statistic, rel=1e-12)
    assert payload["p_value"] == pytest.approx(res.p_value, rel=1e-12)


# Each registered method called straight from the library: (groups, grid).
LIBRARY_CALLS = {
    ("two_sample", "co"): lambda g, grid: corank.two_sample_test(
        g[0], g[1], "vdw", grid=grid
    ),
    ("two_sample", "co-sphericized"): lambda g, grid: (
        corank.sphericized_center_outward_test(g, "vdw", "tyler", grid=grid)
    ),
    ("two_sample", "elliptical"): lambda g, grid: corank.elliptical_rank_test(g, "vdw"),
    ("two_sample", "hotelling"): lambda g, grid: corank.hotelling_two_sample(g[0], g[1]),
    ("manova", "co"): lambda g, grid: corank.manova_test(g, "vdw", grid=grid),
    ("manova", "co-sphericized"): lambda g, grid: (
        corank.sphericized_center_outward_test(g, "vdw", "tyler", grid=grid)
    ),
    ("manova", "elliptical"): lambda g, grid: corank.elliptical_rank_test(g, "vdw"),
    ("manova", "pillai"): lambda g, grid: corank.pillai_manova(g),
}


def method_choices(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return next(a.choices for a in sub._actions if a.dest == "method")


@pytest.mark.parametrize(
    "study,method", [(study, m) for study in METHODS for m in METHODS[study]]
)
def test_registry_matches_library(study, method, tmp_path, capsys):
    assert set(LIBRARY_CALLS) == {(s, m) for s in METHODS for m in METHODS[s]}
    command = study.replace("_", "-")
    assert method_choices(command) == tuple(METHODS[study])
    # 26 = 4 * 6 + 2 points: the tie-break seed picks the two leftover directions
    rng = np.random.default_rng(63)
    opts = ["--method", method, "--score", "vdw", "--scatter", "tyler",
            "--nr", "4", "--ns", "6", "--seed", "3", "--json"]
    if study == "two_sample":
        groups = [rng.standard_normal((12, 2)), rng.standard_normal((14, 2)) + 0.3]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, g in zip(paths, groups):
            write_csv(path, ["y1", "y2"], g)
        argv = ["two-sample", "--input", *map(str, paths), *opts]
    else:
        shifts = ((9, 0.0), (8, 0.3), (9, -0.2))
        groups = [rng.standard_normal((nk, 2)) + off for nk, off in shifts]
        labels = ["a"] * 9 + ["b"] * 8 + ["c"] * 9
        path = tmp_path / "groups.csv"
        write_csv(path, ["group", "y1", "y2"], np.vstack(groups), labels)
        argv = ["manova", "--input", str(path), "--group-col", "group", *opts]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    spec = corank.make_spec(26, 2, n_r=4, n_s=6, symmetrize=True)
    res = LIBRARY_CALLS[study, method](groups, corank.build_grid(spec, tie_break_seed=3))
    assert payload["method"] == res.method
    assert payload["statistic"] == pytest.approx(res.statistic, rel=1e-12)
    assert payload["p_value"] == pytest.approx(res.p_value, rel=1e-12)


def test_manova_three_groups_dof(tmp_path, capsys):
    # 126 = 7 * 18 gridpoints, three unbalanced groups, d = 4
    rng = np.random.default_rng(61)
    labels = ["a"] * 54 + ["b"] * 17 + ["c"] * 55
    data = rng.standard_normal((126, 4))
    path = tmp_path / "groups.csv"
    write_csv(path, ["group", "y1", "y2", "y3", "y4"], data, labels)
    code = main(
        ["manova", "--input", str(path), "--group-col", "group",
         "--nr", "7", "--ns", "18", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "co-manova"
    assert payload["dof"] == 8
    assert payload["n"] == 126
    assert payload["d"] == 4
    assert payload["n_R"] == 7
    assert payload["n_S"] == 18
    assert payload["n_0"] == 0
    assert 0.0 < payload["p_value"] <= 1.0


def test_manova_response_cols_subset(tmp_path, capsys):
    rng = np.random.default_rng(62)
    labels = ["u"] * 10 + ["v"] * 10
    data = rng.standard_normal((20, 3))
    path = tmp_path / "mixed.csv"
    write_csv(path, ["group", "y1", "junk", "y2"], data, labels)
    code = main(
        ["manova", "--input", str(path), "--group-col", "group",
         "--response-cols", "y1,y2", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    res = corank.manova_test([data[:10][:, [0, 2]], data[10:][:, [0, 2]]])
    assert payload["statistic"] == pytest.approx(res.statistic, rel=1e-12)


def test_regression_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(63)
    c = rng.standard_normal((30, 1))
    beta0 = np.array([[0.5, -0.25]])
    y = c @ beta0 + rng.standard_normal((30, 2))
    path = tmp_path / "reg.csv"
    write_csv(path, ["y1", "y2", "c1"], np.column_stack([y, c]))
    bpath = tmp_path / "beta0.csv"
    bpath.write_text("0.5,-0.25\n")
    code = main(
        ["regression", "--input", str(path), "--response-cols", "y1,y2",
         "--covariate-cols", "c1", "--beta0", str(bpath), "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    res = corank.regression_test(y, c, beta0, "wilcoxon")
    assert payload["method"] == "co-regression"
    assert payload["p_value"] == pytest.approx(res.p_value, rel=1e-12)


def test_beta0_shape_mismatch(tmp_path, capsys):
    rng = np.random.default_rng(64)
    path = tmp_path / "reg.csv"
    write_csv(path, ["y1", "y2", "c1"], rng.standard_normal((10, 3)))
    bpath = tmp_path / "beta0.csv"
    bpath.write_text("0.5\n")
    code = main(
        ["regression", "--input", str(path), "--response-cols", "y1,y2",
         "--covariate-cols", "c1", "--beta0", str(bpath)]
    )
    assert code == 2
    assert "1x2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, cell",
    [
        ("0.5,nan\n", "'nan' at row 1, column 2"),
        ("b1,b2\n1e400,0.5\n", "'1e400' at row 2, column 1"),
        ("0.5,1\n0.5,x\n", "'x' at row 2, column 2"),
        ("1,2\n3\n", "missing coefficient at row 2, column 2"),
        ("1,2\n\n3,4,5\n", "extra coefficient at row 3, column 3"),
    ],
    ids=["nan", "overflow", "non-numeric", "short-row", "long-row"],
)
def test_beta0_bad_cell_is_named(tmp_path, capsys, text, cell):
    rng = np.random.default_rng(65)
    path = tmp_path / "reg.csv"
    write_csv(path, ["y1", "y2", "c1", "c2"], rng.standard_normal((10, 4)))
    bpath = tmp_path / "beta0.csv"
    bpath.write_text(text)
    code = main(
        ["regression", "--input", str(path), "--response-cols", "y1,y2",
         "--covariate-cols", "c1,c2", "--beta0", str(bpath)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(bpath) in err and cell in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["two-sample", "--input", "a.csv", "b.csv", "--method", "anova"]) == 1


def test_missing_column_is_data_error(tmp_path, two_files, capsys):
    code = main(
        ["two-sample", "--input", *two_files, "--response-cols", "y1,nope"]
    )
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_non_numeric_cell_reports_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("y1,y2\n1,2\n3,4\n5,oops\n7,8\n9,10\n")
    other = tmp_path / "ok.csv"
    write_csv(other, ["y1", "y2"], np.random.default_rng(65).standard_normal((5, 2)))
    code = main(["two-sample", "--input", str(path), str(other)])
    assert code == 2
    err = capsys.readouterr().err
    assert "row 4" in err
    assert "oops" in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_reports_row_and_column(tmp_path, capsys, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"y1,y2\n1,2\n3,4\n5,{cell}\n7,8\n9,10\n")
    other = tmp_path / "ok.csv"
    write_csv(other, ["y1", "y2"], np.random.default_rng(65).standard_normal((5, 2)))
    code = main(["two-sample", "--input", str(path), str(other)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "row 4" in err and "'y2'" in err
    assert repr(cell) in err


def test_empty_and_short_files(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header_only = tmp_path / "header.csv"
    header_only.write_text("y1,y2\n")
    ok = tmp_path / "ok.csv"
    write_csv(ok, ["y1", "y2"], np.random.default_rng(66).standard_normal((5, 2)))
    for bad, fragment in [(empty, "empty"), (header_only, "at least 4 data rows")]:
        code = main(["two-sample", "--input", str(bad), str(ok)])
        assert code == 2
        assert fragment in capsys.readouterr().err


def test_ragged_row_is_data_error(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("y1,y2\n1,2\n3,4,9\n5,6\n7,8\n")
    ok = tmp_path / "ok.csv"
    write_csv(ok, ["y1", "y2"], np.random.default_rng(67).standard_normal((5, 2)))
    assert main(["two-sample", "--input", str(path), str(ok)]) == 2
    assert "row 3" in capsys.readouterr().err


def test_dimension_mismatch_between_files(tmp_path, capsys):
    rng = np.random.default_rng(68)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], rng.standard_normal((6, 2)))
    write_csv(b, ["y1"], rng.standard_normal((6, 1)))
    assert main(["two-sample", "--input", str(a), str(b)]) == 2
    assert "differ in dimension" in capsys.readouterr().err


def test_degenerate_data_is_numerical_error(tmp_path, capsys):
    t = np.linspace(1.0, 8.0, 8)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], np.column_stack([t, 2 * t]))
    write_csv(b, ["y1", "y2"], np.column_stack([t + 1, 2 * t + 2]))
    code = main(
        ["two-sample", "--input", str(a), str(b), "--method", "elliptical"]
    )
    assert code == 3
    assert "numerical error" in capsys.readouterr().err
    assert main(["two-sample", "--input", str(a), str(b), "--method", "hotelling"]) == 3


def test_odd_ns_disables_symmetrization(tmp_path, capsys):
    rng = np.random.default_rng(69)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], rng.standard_normal((5, 2)))
    write_csv(b, ["y1", "y2"], rng.standard_normal((5, 2)))
    code = main(
        ["two-sample", "--input", str(a), str(b), "--nr", "2", "--ns", "5",
         "--json"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "disabling direction symmetrization" in captured.err
    assert json.loads(captured.out)["n_S"] == 5
    # tests without a grid print no note
    odd = ["--nr", "2", "--ns", "5"]
    for method in ("hotelling", "elliptical"):
        argv = ["two-sample", "--input", str(a), str(b), "--method", method]
        assert main(argv + odd) == 0
        assert "symmetrization" not in capsys.readouterr().err
    groups = tmp_path / "groups.csv"
    write_csv(groups, ["group", "y1", "y2"], rng.standard_normal((10, 2)),
              ["a"] * 5 + ["b"] * 5)
    argv = ["manova", "--input", str(groups), "--group-col", "group",
            "--method", "pillai"]
    assert main(argv + odd) == 0
    assert "symmetrization" not in capsys.readouterr().err


def test_grid_dump_round_trip(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    code = main(
        ["grid-dump", "--n", "20", "--d", "2", "--nr", "5", "--ns", "4",
         "--out", str(out)]
    )
    assert code == 0
    grid = corank.build_grid(corank.make_spec(20, 2, n_r=5, n_s=4, symmetrize=True))
    buf = io.StringIO()
    corank.grid_to_csv(grid, buf)
    assert out.read_bytes().decode() == buf.getvalue()
    # stdout variant emits the same bytes
    assert main(["grid-dump", "--n", "20", "--d", "2", "--nr", "5", "--ns", "4"]) == 0
    assert capsys.readouterr().out == buf.getvalue()


def test_grid_dump_odd_ns_disables_symmetrization(capsys):
    # the same rule, and the same note, as the test subcommands
    assert main(["grid-dump", "--n", "20", "--d", "2", "--nr", "4", "--ns", "5"]) == 0
    captured = capsys.readouterr()
    grid = corank.build_grid(corank.make_spec(20, 2, n_r=4, n_s=5, symmetrize=False))
    buf = io.StringIO()
    corank.grid_to_csv(grid, buf)
    assert captured.out == buf.getvalue()
    assert "disabling direction symmetrization" in captured.err


def test_simulate_matches_library(tmp_path, capsys):
    cfg = {
        "study": "two_sample",
        "law": "t3",
        "sizes": [8, 8],
        "deltas": [0.0, 0.8],
        "methods": ["co", "hotelling"],
        "n_replications": 20,
        "master_seed": 70,
    }
    cpath = tmp_path / "study.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "curve.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(out)]) == 0
    buf = io.StringIO()
    corank.run_power_study(corank.SimConfig.from_dict(cfg)).to_csv(buf)
    assert out.read_bytes().decode() == buf.getvalue()


def test_simulate_odd_ns_disables_symmetrization(tmp_path, capsys):
    # the rule the test subcommands use; the study ran symmetrized before
    cfg = {"sizes": [5, 5], "n_r": 2, "n_s": 5, "n_replications": 1,
           "deltas": [0.0, 4.0], "score": "sign"}
    cpath = tmp_path / "study.json"
    cpath.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cpath)]) == 0
    out = capsys.readouterr().out
    buf = io.StringIO()
    corank.run_power_study(corank.SimConfig.from_dict(cfg)).to_csv(buf)
    assert out == buf.getvalue()
    rng = np.random.default_rng([0, 0])
    x, y = (corank.sample(corank.make_law("gauss"), 5, rng) for _ in range(2))
    grid = corank.build_grid(corank.make_spec(10, 2, n_r=2, n_s=5))
    results = [corank.two_sample_test(x, corank.shift(y, delta), "sign", grid=grid)
               for delta in cfg["deltas"]]
    assert [int(row["rejections"]) for row in csv.DictReader(io.StringIO(out))] \
        == [int(r.p_value < 0.05) for r in results] == [0, 1]
    # the test subcommand builds the same unsymmetrized grid from the same flags
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], x)
    write_csv(b, ["y1", "y2"], y)
    argv = ["two-sample", "--input", str(a), str(b), "--score", "sign",
            "--nr", "2", "--ns", "5", "--json"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "disabling direction symmetrization" in captured.err
    payload = json.loads(captured.out)
    assert payload["statistic"] == results[0].statistic
    assert payload["p_value"] == results[0].p_value


def test_simulate_bad_config_is_usage_error(tmp_path, capsys):
    cpath = tmp_path / "study.json"
    cpath.write_text('{"study": "anova"}')
    assert main(["simulate", "--config", str(cpath)]) == 1
    cpath.write_text('{"laws": "gauss"}')
    assert main(["simulate", "--config", str(cpath)]) == 1
    assert "laws" in capsys.readouterr().err
    # unknown names are rejected before any replication runs
    for bad, name in (({"score": "bogus"}, "bogus"),
                      ({"scatter": "bogus", "methods": ["co-sphericized"]}, "bogus"),
                      ({"law": "nosuch"}, "nosuch"), ({"law": "skewt0"}, "skewt0")):
        cpath.write_text(json.dumps(bad))
        assert main(["simulate", "--config", str(cpath)]) == 1
        err = capsys.readouterr().err
        assert f"'{name}'" in err and "replication" not in err
    # so are fields of the wrong type, without a traceback
    for key, value in (("sizes", "50,50"), ("n_replications", "5"),
                       ("deltas", 0.1), ("alpha", "0.05"),
                       ("deltas", [float("nan")]), ("deltas", [0.0, 0.0]),
                       ("methods", ["co", "co"])):
        cpath.write_text(json.dumps({key: value}))
        assert main(["simulate", "--config", str(cpath)]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
    for key, bad in (("n_r", {"n_r": "4", "n_s": "10"}), ("law", {"law": 5}),
                     ("study", {"study": ["x"]}),
                     ("n_r", {"n_r": 4.0, "n_s": 10})):
        cpath.write_text(json.dumps(bad))
        assert main(["simulate", "--config", str(cpath)]) == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err


def test_permuted_labels_give_uniform_p_values(tmp_path, capsys):
    # relabeling observations from one pooled draw must leave the null
    # statistic's law untouched; the CLI must agree with the library on
    # the very data it is handed
    rng = np.random.default_rng(909)
    pool = corank.sample(corank.make_law("gauss"), 100, rng)
    grid = corank.build_grid(corank.make_spec(100, 2, symmetrize=True))
    rs = corank.ranks_signs(corank.empirical_map(pool, grid))
    score = corank.get_score("wilcoxon", 2)
    pvals = np.empty(500)
    for i in range(500):
        perm = rng.permutation(100)
        shuffled = RanksSigns(rank=rs.rank[perm], sign=rs.sign[perm], n_r=rs.n_r)
        stat = k_sample_statistic(shuffled, [50, 50], score)
        pvals[i] = corank.chi_sq_sf(2, stat)
    assert sps.kstest(pvals, "uniform").pvalue > 0.01

    perm0 = np.random.default_rng([909, 0]).permutation(100)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["y1", "y2"], pool[perm0[:50]])
    write_csv(b, ["y1", "y2"], pool[perm0[50:]])
    assert main(["two-sample", "--input", str(a), str(b), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    res = corank.two_sample_test(pool[perm0[:50]], pool[perm0[50:]])
    assert payload["p_value"] == pytest.approx(res.p_value, rel=1e-12)


GRID_DUMP = ["grid-dump", "--n", "8", "--d", "2"]


def subprocess_env():
    """Environment whose PYTHONPATH puts this process's corank first."""
    env = dict(os.environ)
    root = str(Path(corank.__file__).parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root if not rest else os.pathsep.join([root, rest])
    return env


def run_module_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "corank.cli", *GRID_DUMP],
        capture_output=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"x1,x2,")
    return proc.stdout


def declared_console_script():
    """The `corank` value of [project.scripts] in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["corank"]


def test_console_script_entry_point():
    expected = run_module_cli()
    value = declared_console_script()
    ep = EntryPoint(name="corank", value=value, group="console_scripts")
    assert callable(ep.load())
    # what a generated console-script wrapper does: load the entry, call it
    # and exit with its return value
    code = (
        "import sys\n"
        "from importlib.metadata import EntryPoint\n"
        f"ep = EntryPoint(name='corank', value={value!r}, "
        "group='console_scripts')\n"
        "sys.exit(ep.load()())\n"
    )
    script = subprocess.run(
        [sys.executable, "-c", code, *GRID_DUMP],
        capture_output=True,
        env=subprocess_env(),
    )
    assert script.returncode == 0
    assert script.stdout == expected


@pytest.mark.skipif(
    shutil.which("corank") is None,
    reason="corank console script is not on PATH",
)
def test_installed_console_script():
    expected = run_module_cli()
    script = subprocess.run(
        [shutil.which("corank"), *GRID_DUMP],
        capture_output=True,
        env=subprocess_env(),
    )
    assert script.returncode == 0
    assert script.stdout == expected


def test_d2_calls_leave_scipy_stats_unimported():
    # scipy.stats is about 40% of a d = 2 command's run time; only the
    # Halton directions of d >= 4 grids need it
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import corank\n"
        "rng = np.random.default_rng(5)\n"
        "x, y = rng.standard_normal((2, 30, 2))\n"
        "corank.two_sample_test(x, y)\n"
        "corank.run_power_study(corank.SimConfig(\n"
        "    sizes=(20, 20), deltas=(0.0, 0.5), n_replications=2,\n"
        "    methods=tuple(corank.simulation.METHODS['two_sample'])))\n"
        "print('scipy.stats' in sys.modules)\n"
        "corank.two_sample_test(*rng.standard_normal((2, 30, 4)))\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
