"""Monte Carlo power and null-distribution studies.

A study draws the groups from a named law, shifts the last group by
each delta, runs each requested method, and counts rejections at level
alpha.  Replication r uses the generator seeded with
``[master_seed, r]``, so results are reproducible and independent of
the order (or any parallel schedule) in which replications run; the
aggregation is a plain sum of counts.  The same base draws are reused
across deltas and methods (common random numbers), which sharpens power
comparisons at no cost.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .baselines import (
    SCATTERS,
    elliptical_rank_test,
    hotelling_two_sample,
    pillai_manova,
    sphericized_center_outward_test,
)
from .distributions import make_law, sample, shift
from .errors import InvalidSpecError, SimulationError
from .rank_tests import manova_test, two_sample_test
from .scores import SCORES
from .sphere_grid import build_grid, make_spec


def _sphericized(g, score, scatter, opts):
    return sphericized_center_outward_test(g, score, scatter, **opts)


def _elliptical(g, score, scatter, opts):
    return elliptical_rank_test(g, score)


# study -> method -> call(groups, score, scatter, grid_options).  Each call
# looks its test up in this module's globals when it runs, so rebinding a
# module-level name reaches the studies and the command line alike.
METHODS = {
    "two_sample": {
        "co": lambda g, score, scatter, opts: two_sample_test(
            g[0], g[1], score, **opts
        ),
        "co-sphericized": _sphericized,
        "elliptical": _elliptical,
        "hotelling": lambda g, score, scatter, opts: hotelling_two_sample(g[0], g[1]),
    },
    "manova": {
        "co": lambda g, score, scatter, opts: manova_test(g, score, **opts),
        "co-sphericized": _sphericized,
        "elliptical": _elliptical,
        "pillai": lambda g, score, scatter, opts: pillai_manova(g),
    },
}


@dataclass(frozen=True)
class SimConfig:
    """Study definition; desk-scale defaults."""

    study: str = "two_sample"
    law: str = "gauss"
    sizes: tuple = (50, 50)
    deltas: tuple = (0.0,)
    methods: tuple = ("co",)
    score: str = "wilcoxon"
    n_replications: int = 500
    alpha: float = 0.05
    master_seed: int = 0
    n_r: int | None = None
    n_s: int | None = None
    scatter: str = "sample"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(v) for v in self.sizes))
        object.__setattr__(self, "deltas", tuple(float(v) for v in self.deltas))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.study not in METHODS:
            raise InvalidSpecError(
                f"study must be one of {sorted(METHODS)}, got {self.study!r}"
            )
        if self.study == "two_sample" and len(self.sizes) != 2:
            raise InvalidSpecError("a two-sample study needs exactly 2 group sizes")
        if len(self.sizes) < 2 or any(v < 2 for v in self.sizes):
            raise InvalidSpecError(f"invalid group sizes {self.sizes}")
        if not self.deltas:
            raise InvalidSpecError("need at least one delta")
        if not self.methods:
            raise InvalidSpecError("need at least one method")
        for m in self.methods:
            if m not in METHODS[self.study]:
                raise InvalidSpecError(
                    f"method {m!r} not available for study {self.study!r} "
                    f"(choose from {tuple(METHODS[self.study])})"
                )
        for key, known in (("score", SCORES), ("scatter", SCATTERS)):
            value = getattr(self, key)
            if value not in tuple(known):
                raise InvalidSpecError(
                    f"{key} must be one of {tuple(known)}, got {value!r}"
                )
        if self.n_replications < 1:
            raise InvalidSpecError("need at least one replication")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidSpecError(f"alpha must be in (0, 1), got {self.alpha}")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidSpecError(
                f"unknown config keys {sorted(unknown)}; expected {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as err:
                raise InvalidSpecError(f"{path}: not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise InvalidSpecError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class PowerCurve:
    """Rejection frequencies per (method, delta), with binomial errors."""

    config: SimConfig
    rows: tuple = field(repr=False)

    def to_csv(self, path):
        if hasattr(path, "write"):
            self._write(path)
            return
        with open(path, "w", newline="") as fh:
            self._write(fh)

    def _write(self, fh):
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "delta", "n", "rejections", "N", "frequency", "mc_se"]
        )
        for row in self.rows:
            writer.writerow(
                [
                    row["method"],
                    repr(row["delta"]),
                    row["n"],
                    row["rejections"],
                    row["N"],
                    repr(row["frequency"]),
                    repr(row["mc_se"]),
                ]
            )

    def frequency(self, method, delta):
        for row in self.rows:
            if row["method"] == method and row["delta"] == delta:
                return row["frequency"]
        raise KeyError((method, delta))

    def mc_se(self, method, delta):
        for row in self.rows:
            if row["method"] == method and row["delta"] == delta:
                return row["mc_se"]
        raise KeyError((method, delta))


def _study_grid(config, d):
    spec = make_spec(
        sum(config.sizes), d, n_r=config.n_r, n_s=config.n_s, symmetrize=True
    )
    return build_grid(spec, tie_break_seed=config.master_seed)


def _replicate(config, law, grid, collect_stats):
    n_methods = len(config.methods)
    calls = [METHODS[config.study][m] for m in config.methods]
    grid_options = {"grid": grid}
    rejections = np.zeros((n_methods, len(config.deltas)), dtype=int)
    stats = (
        {m: np.empty(config.n_replications) for m in config.methods}
        if collect_stats
        else None
    )
    for rep in range(config.n_replications):
        rng = np.random.default_rng([config.master_seed, rep])
        try:
            bases = [sample(law, nk, rng) for nk in config.sizes]
            for j, delta in enumerate(config.deltas):
                groups = bases[:-1] + [shift(bases[-1], delta)]
                for i, (method, call) in enumerate(zip(config.methods, calls)):
                    result = call(groups, config.score, config.scatter, grid_options)
                    if result.p_value < config.alpha:
                        rejections[i, j] += 1
                    if collect_stats and j == 0:
                        stats[method][rep] = result.statistic
        except Exception as err:
            raise SimulationError(
                f"replication {rep} (seed [{config.master_seed}, {rep}]) "
                f"failed: {err}"
            ) from err
    return rejections, stats


def run_power_study(config):
    """Run the full study and return the power curve.

    Returns
    -------
    PowerCurve
        One row per (method, delta) with the rejection count, frequency,
        and binomial Monte Carlo standard error.
    """
    law = make_law(config.law)
    grid = _study_grid(config, law.d)
    rejections, _ = _replicate(config, law, grid, collect_stats=False)
    n_total = sum(config.sizes)
    big_n = config.n_replications
    rows = []
    for i, method in enumerate(config.methods):
        for j, delta in enumerate(config.deltas):
            freq = float(rejections[i, j]) / big_n
            rows.append(
                {
                    "method": method,
                    "delta": delta,
                    "n": n_total,
                    "rejections": int(rejections[i, j]),
                    "N": big_n,
                    "frequency": freq,
                    "mc_se": float(np.sqrt(freq * (1.0 - freq) / big_n)),
                }
            )
    return PowerCurve(config=config, rows=tuple(rows))


def run_null_distribution(config):
    """Collect null statistic samples (delta forced to 0) per method.

    Returns
    -------
    dict mapping method name to an array of n_replications statistics.
    """
    config = SimConfig(**{**asdict(config), "deltas": (0.0,)})
    law = make_law(config.law)
    grid = _study_grid(config, law.d)
    _, stats = _replicate(config, law, grid, collect_stats=True)
    return stats
