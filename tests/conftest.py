"""Shared fixtures: an empty warm-start slot, and the Monte Carlo loops.

The three session fixtures below are consumed both by the module tests
and by the acceptance suite, so the heavy replication loops run once per
pytest session.  Every loop derives its per-replication generator from a
fixed base seed, so all of these are deterministic.
"""

import numpy as np
import pytest

import corank
from corank import center_outward


@pytest.fixture(autouse=True)
def empty_store():
    """Start and leave every test with an empty warm-start slot.

    The slot is process-wide, so a test that counts solver paths or uses
    tied data would otherwise depend on which test ran before it.
    """
    center_outward._latest = None
    yield
    center_outward._latest = None


@pytest.fixture(scope="session")
def null_stats_n400():
    """Two-sample Wilcoxon statistics under H0 at pooled n=400, N=5000."""
    law = corank.make_law("gauss")
    grid = corank.build_grid(corank.make_spec(400, 2, symmetrize=True))
    stats = np.empty(5000)
    for rep in range(5000):
        rng = np.random.default_rng([555, rep])
        x = corank.sample(law, 200, rng)
        y = corank.sample(law, 200, rng)
        stats[rep] = corank.two_sample_test(x, y, "wilcoxon", grid=grid).statistic
    return stats


@pytest.fixture(scope="session")
def freeness_stats():
    """Null statistic samples under Gaussian and Cauchy errors.

    Independent seed streams per law; n1 = n2 = 25, N = 5000 each.
    """
    grid = corank.build_grid(corank.make_spec(50, 2, symmetrize=True))
    out = {}
    for base, name in ((77, "gauss"), (80, "t1")):
        law = corank.make_law(name)
        stats = np.empty(5000)
        for rep in range(5000):
            rng = np.random.default_rng([base, rep])
            x = corank.sample(law, 25, rng)
            y = corank.sample(law, 25, rng)
            stats[rep] = corank.two_sample_test(x, y, "wilcoxon", grid=grid).statistic
        out[name] = stats
    return out


@pytest.fixture(scope="session")
def mix2cauchy_power():
    """Power of co / elliptical / hotelling under the Cauchy mixture.

    n1 = n2 = 200, delta = 0.24, N = 500; returns {method: (freq, se)}.
    """
    cfg = corank.SimConfig(
        study="two_sample",
        law="mix2cauchy",
        sizes=(200, 200),
        deltas=(0.24,),
        methods=("co", "elliptical", "hotelling"),
        score="wilcoxon",
        n_replications=500,
        alpha=0.05,
        master_seed=606,
    )
    curve = corank.run_power_study(cfg)
    return {row["method"]: (row["frequency"], row["mc_se"]) for row in curve.rows}
