"""Every name the benchmark's tracer binds is still called, or is kept on purpose.

``perfbench/tracing.py`` times the library by rebinding module-level names
(``center_outward.solve_assignment``, ``simulation.sample``, ...).  A name
that its module stops calling still installs, but its span reads 0 on
every workload from then on.  This check runs a small study with every
two-sample method and one default ``two_sample_test`` call under the
tracer, and requires each binding either to record a call or to appear in
``KEPT_FOR_THE_TRACER`` with the reason its module no longer calls it.
"""

import sys
from pathlib import Path

import numpy as np

from corank import SimConfig, make_law, rank_tests, sample, simulation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

# (module, name) -> why that module holds a name it no longer calls
KEPT_FOR_THE_TRACER = {
    ("rank_tests", "ranks_signs"): "the tests read scores from the grid's table",
    ("rank_tests", "k_sample_statistic"): "defined there; baselines' import is called",
    ("center_outward", "build_grid"): "the map takes a built Grid",
    ("simulation", "two_sample_test"): "a study runs the co body after one check",
    ("simulation", "sphericized_center_outward_test"): "as for two_sample_test",
    ("simulation", "elliptical_rank_test"): "as for two_sample_test",
    ("simulation", "hotelling_two_sample"): "as for two_sample_test",
}


def _key(owner):
    return getattr(owner, "__name__", "").rpartition(".")[2]


def _counted(fn, counts, key):
    def call(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return call


def test_each_traced_name_is_called_or_kept_on_purpose():
    bindings = tracing._bindings()
    library = [owner.__dict__[attr] for owner, attr, _ in bindings]
    tracer = tracing.Tracer()
    counts = {}
    # a new design, so that group_design calls standardize_design
    rank_tests.group_design.cache_clear()
    with tracer.install():
        # the tracer's wrappers, counted per binding, since bindings share
        # span names; the tracer puts the library's own functions back
        for owner, attr, _ in bindings:
            key = (_key(owner), attr)
            setattr(owner, attr, _counted(owner.__dict__[attr], counts, key))
        workloads.run_power_study(SimConfig(
            law="t3", sizes=(12, 12), deltas=(0.0, 0.5),
            methods=tuple(simulation.METHODS["two_sample"]), score="vdw",
            n_replications=2, master_seed=3,
        ))
        rng = np.random.default_rng(5)
        x, y = (sample(make_law("gauss"), 15, rng) for _ in range(2))
        workloads.two_sample_test(x, y)
    assert tracer.spans  # the tracer saw the calls too
    assert [owner.__dict__[attr] for owner, attr, _ in bindings] == library
    silent = {(_key(owner), attr) for owner, attr, _ in bindings
              if not counts.get((_key(owner), attr))}
    assert silent == set(KEPT_FOR_THE_TRACER)
