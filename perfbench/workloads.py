"""The benchmark's workloads: inputs from a seed, the timed call, and its check.

A workload runs as a closed loop with one client: unit ``i`` is drawn
from the seed, one public library call runs on it, and the next unit
starts when that call returns.

* ``call_n1000`` -- one-off ``two_sample_test`` calls at pooled n = 1000,
  each building its own grid; one unit is one call.
* ``power_small_vdw`` and ``power_n400`` -- ``run_power_study`` on chunks
  of ``chunk`` replications; chunk ``i`` uses master seed
  ``seed + CHUNK_SEED_STRIDE * i``, so chunk 0 of seed 606 is the study
  with master seed 606.  One unit is one replication.

Every check recomputes outside the timed region, with SciPy's dense
``linear_sum_assignment`` as the independent optimum.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist
from scipy.stats import chi2

from corank import (
    SimConfig,
    build_grid,
    empirical_map,
    make_law,
    make_spec,
    run_power_study,
    sample,
    sample_covariance,
    shift,
    sphericize,
    two_sample_test,
)

CHUNK_SEED_STRIDE = 1_000_003
ALPHA = 0.05  # the level of every power study
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerances: against a value frozen from the same code path, and
# against an independent recomputation that sums in another order.
FROZEN_RTOL = 1e-12
INDEPENDENT_RTOL = 1e-9


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _score_j(score, r, d):
    if score == "wilcoxon":
        return r, 1.0 / 3.0
    if score == "vdw":
        return np.sqrt(chi2.ppf(r, d)), float(d)
    raise ValueError(f"no independent form for score {score!r}")


def independent_check(pooled, n1, grid, score):
    """Independent optimum and two-sample statistic for one pooled sample.

    Returns ``(map_ok, statistic, p_value)``: whether ``empirical_map``'s
    total cost equals the dense SciPy optimum on the same cost matrix, and
    the statistic and p-value computed from that optimum by the design
    formula ``(n d / |J|^2) |lambda|^2``.
    """
    cost = cdist(pooled, grid.points, "sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    optimum = float(cost[rows, cols].sum())
    map_ok = _close(empirical_map(pooled, grid).total_cost, optimum, INDEPENDENT_RTOL)

    n, d = pooled.shape
    j, norm_sq = _score_j(score, grid.rank_values()[cols] / (grid.spec.n_r + 1), d)
    v = j[:, None] * grid.sign_vectors()[cols]
    p = n1 / n
    centered = np.r_[np.full(n1, 1.0 - p), np.full(n - n1, -p)]
    lam = centered @ v / (n * np.sqrt(p * (1.0 - p)))
    stat = float(n * d / norm_sq * (lam @ lam))
    return map_ok, stat, float(chi2.sf(stat, d))


def config(workload):
    """A workload's definition as plain JSON values."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(workload).items()}


@dataclass(frozen=True)
class CallWorkload:
    """Repeated one-off two-sample tests, each on fresh data and its own grid."""

    name: str
    law: str
    sizes: tuple
    score: str

    units_per_call = 1

    def prepare(self):
        two_sample_test(*self.inputs(0, 0, size=10), self.score)

    def inputs(self, seed, i, size=None):
        law = make_law(self.law)
        rng = np.random.default_rng([seed, i])
        return [sample(law, size or nk, rng) for nk in self.sizes]

    def call(self, groups):
        res = two_sample_test(groups[0], groups[1], self.score)
        return [res.statistic, res.p_value]

    def verify(self, seed, i, outcome):
        """True when unit ``i``'s outcome matches the independent optimum."""
        groups = self.inputs(seed, i)
        pooled = np.vstack(groups)
        grid = build_grid(make_spec(len(pooled), pooled.shape[1], symmetrize=True))
        map_ok, stat, p_value = independent_check(pooled, len(groups[0]), grid, self.score)
        return (map_ok and _close(outcome[0], stat, INDEPENDENT_RTOL)
                and _close(outcome[1], p_value, INDEPENDENT_RTOL))

    def matches(self, outcome, frozen):
        return all(_close(a, b, FROZEN_RTOL) for a, b in zip(outcome, frozen))


@dataclass(frozen=True)
class PowerWorkload:
    """A two-sample power study run in chunks of ``chunk`` replications."""

    name: str
    law: str
    sizes: tuple
    deltas: tuple
    methods: tuple
    score: str
    chunk: int

    @property
    def units_per_call(self):
        return self.chunk

    def _study(self, master_seed, sizes=None, n_replications=None):
        return SimConfig(
            study="two_sample", law=self.law, sizes=sizes or self.sizes,
            deltas=self.deltas, methods=self.methods, score=self.score,
            n_replications=n_replications or self.chunk, alpha=ALPHA,
            master_seed=master_seed,
        )

    def prepare(self):
        run_power_study(self._study(0, sizes=(10, 10), n_replications=1))

    def inputs(self, seed, i):
        return self._study(seed + CHUNK_SEED_STRIDE * i)

    def replication(self, study, rep):
        """The base groups replication ``rep`` of ``study`` draws."""
        law = make_law(study.law)
        rng = np.random.default_rng([study.master_seed, rep])
        return [sample(law, nk, rng) for nk in study.sizes]

    def call(self, study):
        return [row["rejections"] for row in run_power_study(study).rows]

    def verify(self, seed, i, outcome):
        """True when chunk ``i`` passes the independent checks.

        Every assignment the ``co`` and ``co-sphericized`` methods make is
        compared with the dense SciPy optimum, and the ``co`` rejection
        count per delta is recounted from independently computed p-values.
        """
        study = self.inputs(seed, i)
        n1 = study.sizes[0]
        n, d = sum(study.sizes), make_law(study.law).d
        grid = build_grid(make_spec(n, d, symmetrize=True), tie_break_seed=study.master_seed)
        co_rejections = np.zeros(len(study.deltas), dtype=int)
        ok = True
        for rep in range(study.n_replications):
            bases = self.replication(study, rep)
            for k, delta in enumerate(study.deltas):
                pooled = np.vstack([bases[0], shift(bases[1], delta)])
                map_ok, _, p_value = independent_check(pooled, n1, grid, study.score)
                co_rejections[k] += p_value < study.alpha
                ok &= map_ok
                if "co-sphericized" in study.methods:
                    z = sphericize(pooled, sample_covariance(pooled), root="cholesky")
                    ok &= independent_check(z, n1, grid, study.score)[0]
        if "co" in study.methods:
            first = study.methods.index("co") * len(study.deltas)
            ok &= outcome[first:first + len(study.deltas)] == co_rejections.tolist()
        return bool(ok) and all(0 <= c <= study.n_replications for c in outcome)

    def matches(self, outcome, frozen):
        return outcome == frozen


WORKLOADS = {
    w.name: w
    for w in (
        CallWorkload(name="call_n1000", law="mix2cauchy", sizes=(500, 500),
                     score="wilcoxon"),
        PowerWorkload(name="power_small_vdw", law="t3", sizes=(25, 25),
                      deltas=(0.0, 0.2, 0.4),
                      methods=("co", "co-sphericized", "elliptical", "hotelling"),
                      score="vdw", chunk=16),
        PowerWorkload(name="power_n400", law="mix2cauchy", sizes=(200, 200),
                      deltas=(0.0, 0.12, 0.24),
                      methods=("co", "elliptical", "hotelling"),
                      score="wilcoxon", chunk=4),
    )
}


def reference(workload, seed):
    """Outcomes frozen for this seed, call by call; empty for other seeds."""
    if not REFERENCE_PATH.is_file():
        return []
    ref = json.loads(REFERENCE_PATH.read_text()).get(workload.name)
    if ref is None or ref["seed"] != seed:
        return []
    if ref["config"] != config(workload):
        raise RuntimeError(
            f"{REFERENCE_PATH.name} was frozen for another {workload.name} "
            "config; regenerate it with perfbench/freeze.py"
        )
    return ref["outcomes"]
