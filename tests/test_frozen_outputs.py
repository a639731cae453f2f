"""Statistics and p-values frozen from an earlier version, compared with ==.

A change that is meant to keep every number leaves these equal, bit for
bit.  When a change moves them on purpose, refreeze them by running this
file as a script from the root of the checkout, and say in ``CHANGES.md``
which values moved and why:

    PYTHONPATH=src python tests/test_frozen_outputs.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from corank import (
    SimConfig,
    VectorScore,
    build_grid,
    custom_score,
    elliptical_rank_test,
    make_spec,
    manova_test,
    regression_test,
    run_null_distribution,
    run_power_study,
    sphericized_center_outward_test,
    two_sample_test,
)

FROZEN = Path(__file__).with_name("data") / "frozen_outputs.json"


def _square(r):
    return np.asarray(r, dtype=float) ** 2


def _warp(pts):
    # a non-spherical vector score, evaluated row by row
    return pts * (1.0 + pts[:, :1] ** 2)


def _scores():
    return {
        "sign": "sign",
        "wilcoxon": "wilcoxon",
        "vdw": "vdw",
        "custom": custom_score(_square, norm_sq=0.2),
        "vector": VectorScore(_warp),
        "vector-cov": VectorScore(_warp, np.array([[0.4, 0.05], [0.05, 0.3]])),
    }


def _cases():
    """Case name -> zero-argument call returning a TestResult."""
    rng = np.random.default_rng(20261019)
    x, y, w = (rng.standard_t(3, size=(nk, 2)) for nk in (25, 25, 20))
    y = y + 0.4
    x3, y3 = rng.standard_normal((30, 3)), rng.standard_normal((30, 3)) + 0.3
    c = rng.standard_normal((50, 2))
    resp = rng.standard_normal((50, 2)) + c @ np.array([[0.3, 0.0], [0.0, -0.2]])
    grids = {
        "default": None,
        "explicit": build_grid(make_spec(50, 2, n_r=5, n_s=10, symmetrize=True)),
        "odd-ns": build_grid(make_spec(50, 2, n_r=10, n_s=5)),
    }
    shared = build_grid(make_spec(50, 2, symmetrize=True))
    cases = {}
    for sname, score in _scores().items():
        for gname, grid in grids.items():
            cases[f"two-sample/{sname}/{gname}"] = (
                lambda s=score, g=grid: two_sample_test(x, y, s, grid=g)
            )
        cases[f"two-sample/{sname}/shared"] = (
            lambda s=score: two_sample_test(x, y, s, grid=shared)
        )
        cases[f"manova-k3/{sname}"] = lambda s=score: manova_test([x, y, w], s)
        cases[f"regression/{sname}"] = lambda s=score: regression_test(
            resp, c, score=s
        )
        for scatter in ("sample", "tyler"):
            cases[f"sphericized-{scatter}/{sname}"] = (
                lambda s=score, sc=scatter: sphericized_center_outward_test(
                    [x, y], s, sc, grid=shared
                )
            )
        if sname != "vector":  # the elliptical test has no grid to estimate a cov
            cases[f"elliptical/{sname}"] = lambda s=score: elliptical_rank_test(
                [x, y], s
            )
    for sname in ("sign", "wilcoxon", "vdw"):
        cases[f"two-sample-d3/{sname}"] = (
            lambda s=sname: two_sample_test(x3, y3, s)
        )
    return cases


CASES = _cases()
POWER_CONFIG = SimConfig(
    law="t3", sizes=(12, 12), deltas=(0.0, 0.5),
    methods=("co", "co-sphericized", "elliptical", "hotelling"),
    score="vdw", n_replications=5, master_seed=3,
)
NULL_CONFIG = SimConfig(
    study="manova", law="gauss", sizes=(8, 8, 8),
    methods=("co", "co-sphericized", "elliptical", "pillai"),
    score="wilcoxon", n_replications=5, master_seed=4,
)


def compute():
    """Every frozen output, as JSON-ready values."""
    out = {}
    for name, call in CASES.items():
        result = call()
        out[name] = [result.statistic, result.p_value]
    out["power_study"] = [
        [row["method"], row["delta"], row["rejections"], row["frequency"]]
        for row in run_power_study(POWER_CONFIG).rows
    ]
    out["null_distribution"] = {
        m: stats.tolist() for m, stats in run_null_distribution(NULL_CONFIG).items()
    }
    return out


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


def test_frozen_file_covers_every_case(frozen):
    assert set(frozen) == set(CASES) | {"power_study", "null_distribution"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_test_outputs_equal_frozen(frozen, name):
    result = CASES[name]()
    assert [result.statistic, result.p_value] == frozen[name]


def test_power_study_equals_frozen(frozen):
    rows = run_power_study(POWER_CONFIG).rows
    got = [[r["method"], r["delta"], r["rejections"], r["frequency"]] for r in rows]
    assert got == frozen["power_study"]


def test_null_distribution_equals_frozen(frozen):
    got = {m: s.tolist() for m, s in run_null_distribution(NULL_CONFIG).items()}
    assert got == frozen["null_distribution"]


if __name__ == "__main__":
    FROZEN.parent.mkdir(exist_ok=True)
    FROZEN.write_text(json.dumps(compute(), indent=1) + "\n")
