"""Monte Carlo power and null-distribution studies.

A study draws the groups from a named law, shifts the last group by
each delta and runs each requested method on one study grid.  Each
(replication, delta) draw is checked and pooled once, by
``rank_tests.validate_groups``, the check that opens every public
K-group test; the ``METHODS`` registry then runs each method's body,
its public test without that check, on the pooled draw, so a study
records what the public calls would return on the same draws.  Its
record is two ``(methods, deltas, replications)`` float arrays: the
statistic and the p-value of every call, NaN for a call that failed on
a degenerate draw.  The power curve counts p-values below alpha along
the replication axis, out of the calls that returned; the null draws are the
statistics of a study with the single delta 0.  Replication r uses the
generator seeded with ``[master_seed, r]``, so the record is
reproducible and independent of the order (or any parallel schedule) in
which replications run.  The same base draws are reused across deltas
and methods (common random numbers), which sharpens power comparisons
at no cost.  Each method runs every delta of a replication in turn, so
its consecutive assignments on the study grid see nearly the same
sample, which is what the warm start of ``center_outward`` keeps.
"""

from __future__ import annotations

import csv
import json
import numbers
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import (
    SCATTERS,
    _elliptical,
    _hotelling,
    _pillai,
    _sphericized,
)
# the public tests are not called here, but the benchmark's tracer
# (perfbench/tracing.py) binds this module's names for them
from .baselines import (  # noqa: F401
    elliptical_rank_test,
    hotelling_two_sample,
    sphericized_center_outward_test,
)
from .distributions import make_law, sample, shift
from .errors import DegenerateInputError, InvalidSpecError, SimulationError
from .rank_tests import co_test, group_design, validate_groups
from .rank_tests import two_sample_test  # noqa: F401
from .scores import SCORES, get_score
from .sphere_grid import build_grid, make_spec, symmetrizes

# study -> method -> call(pooled, sizes, score, scatter, grid): the body of
# the method's public test, run on groups that rank_tests.validate_groups
# has checked and pooled.  Each call looks its body up in this module's
# globals when it runs, so rebinding a module-level name reaches the
# studies and the command line alike.
_BOTH_STUDIES = {
    "co-sphericized": lambda p, sizes, score, scatter, grid: _sphericized(
        p, sizes, score, scatter, grid),
    "elliptical": lambda p, sizes, score, scatter, grid: _elliptical(p, sizes, score),
}
METHODS = {
    "two_sample": {
        "co": lambda p, sizes, score, scatter, grid: co_test(
            "co-two-sample", p, group_design(sizes), score, grid),
        **_BOTH_STUDIES,
        "hotelling": lambda p, sizes, score, scatter, grid: _hotelling(p, sizes),
    },
    "manova": {
        "co": lambda p, sizes, score, scatter, grid: co_test(
            "co-manova", p, group_design(sizes), score, grid),
        **_BOTH_STUDIES,
        "pillai": lambda p, sizes, score, scatter, grid: _pillai(p, sizes),
    },
}


def _number(value):
    # Python counts a bool, a JSON true or false, as a number; a config does not
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value):
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return operator.index(value)


def _finite(value):
    value = _number(value)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _string(value):
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _one_of(known):
    def convert(value):
        if _string(value) not in known:
            raise ValueError(f"must be one of {tuple(known)}, got {value!r}")
        return value
    return convert


def _optional(read):
    return lambda value: None if value is None else read(value)


def _tuple_of(read):
    def convert(value):
        if isinstance(value, (str, bytes)) or not np.iterable(value):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(read(v) for v in value)
    return convert


# field -> conversion to its type; a TypeError or ValueError names the field
_FIELD_TYPES = {
    "study": _one_of(METHODS),
    "law": _string,
    "sizes": _tuple_of(_integer),
    "deltas": _tuple_of(_finite),
    "methods": _tuple_of(str),
    "n_replications": _integer,
    "alpha": _number,
    "master_seed": _integer,
    "score": _one_of(SCORES),
    "scatter": _one_of(SCATTERS),
    "n_r": _optional(_integer),
    "n_s": _optional(_integer),
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
        for key, convert in _FIELD_TYPES.items():
            value = getattr(self, key)
            try:
                object.__setattr__(self, key, convert(value))
            except (TypeError, ValueError) as err:
                raise InvalidSpecError(f"{key}: {err}") from None
        make_law(self.law)  # raises on an unknown law or a skew-t df <= 0
        if self.study == "two_sample" and len(self.sizes) != 2:
            raise InvalidSpecError("a two-sample study needs exactly 2 group sizes")
        if len(self.sizes) < 2 or any(v < 2 for v in self.sizes):
            raise InvalidSpecError(f"invalid group sizes {self.sizes}")
        if not self.deltas:
            raise InvalidSpecError("need at least one delta")
        if not self.methods:
            raise InvalidSpecError("need at least one method")
        # a power curve has one row per (method, delta)
        for key in ("deltas", "methods"):
            values = getattr(self, key)
            if len(set(values)) < len(values):
                raise InvalidSpecError(f"{key}: repeated entries in {values}")
        for m in self.methods:
            if m not in METHODS[self.study]:
                raise InvalidSpecError(
                    f"method {m!r} not available for study {self.study!r} "
                    f"(choose from {tuple(METHODS[self.study])})"
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
        writer = csv.DictWriter(
            fh, ["method", "delta", "n", "rejections", "N", "frequency", "mc_se"]
        )
        writer.writeheader()
        writer.writerows(self.rows)

    def _row(self, method, delta):
        for row in self.rows:
            if row["method"] == method and row["delta"] == delta:
                return row
        raise KeyError((method, delta))

    def frequency(self, method, delta):
        return self._row(method, delta)["frequency"]

    def mc_se(self, method, delta):
        return self._row(method, delta)["mc_se"]


def _replicate(config):
    """Run every call of the study; return its statistics and p-values.

    Both arrays have shape (methods, deltas, replications).  A call that
    raises ``DegenerateInputError`` (a draw the method cannot handle,
    such as a numerically singular scatter matrix) is recorded as failed,
    with a NaN statistic and p-value, and the study goes on.  Any other
    exception, or a (method, delta) row none of whose calls returns,
    raises ``SimulationError``.
    """
    law = make_law(config.law)
    spec = make_spec(
        sum(config.sizes), law.d, n_r=config.n_r, n_s=config.n_s,
        symmetrize=symmetrizes(config.n_r, config.n_s),
    )
    grid = build_grid(spec, tie_break_seed=config.master_seed)
    # one score object for the whole study, so the J values it keeps
    # are evaluated once per study
    score = get_score(config.score, law.d)
    calls = [METHODS[config.study][m] for m in config.methods]
    shape = (len(calls), len(config.deltas), config.n_replications)
    statistics, p_values = np.empty(shape), np.empty(shape)
    last = config.n_replications - 1
    for rep in range(config.n_replications):
        rng = np.random.default_rng([config.master_seed, rep])
        where = f"replication {rep} (seed [{config.master_seed}, {rep}]) failed"
        try:
            bases = [sample(law, nk, rng) for nk in config.sizes]
            draws = [validate_groups(bases[:-1] + [shift(bases[-1], delta)])
                     for delta in config.deltas]
        except Exception as err:
            raise SimulationError(f"{where}: {err}") from err
        for pooled, _ in draws:  # every method reads the one pooled draw
            pooled.setflags(write=False)
        for i, (method, call) in enumerate(zip(config.methods, calls)):
            for j, (delta, (pooled, sizes)) in enumerate(zip(config.deltas, draws)):
                try:
                    result = call(pooled, sizes, score, config.scatter, grid)
                except DegenerateInputError as err:
                    statistics[i, j, rep] = p_values[i, j, rep] = np.nan
                    if rep == last and np.isnan(p_values[i, j]).all():
                        raise SimulationError(
                            f"{where}: {method} at delta {delta!r}: {err} "
                            "(no replication of this method and delta returned)"
                        ) from err
                    continue
                except Exception as err:
                    raise SimulationError(
                        f"{where}: {method} at delta {delta!r}: {err}"
                    ) from err
                statistics[i, j, rep] = result.statistic
                p_values[i, j, rep] = result.p_value
    return statistics, p_values


def run_power_study(config):
    """Run the full study and return the power curve.

    Returns
    -------
    PowerCurve
        One row per (method, delta) with the rejection count, frequency,
        and binomial Monte Carlo standard error.  Its ``N`` counts the
        calls that returned (a call that failed on a degenerate draw is
        left out), and the frequency and error are taken over those.
    """
    _, p_values = _replicate(config)
    rejections = (p_values < config.alpha).sum(axis=2)
    returned = (~np.isnan(p_values)).sum(axis=2)
    n_total = sum(config.sizes)
    rows = []
    for i, method in enumerate(config.methods):
        for j, delta in enumerate(config.deltas):
            big_n = int(returned[i, j])
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
    A draw on which the method failed (``DegenerateInputError``) is NaN.
    """
    statistics, _ = _replicate(replace(config, deltas=(0.0,)))
    return {m: statistics[i, 0] for i, m in enumerate(config.methods)}
