"""Tests of the benchmark itself: seeded inputs, and a trace that changes nothing.

    python3 -m pytest perfbench -q

Each test runs two calls of every workload, so the file takes under a
minute.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)
CALLS = 2


def _drawn(workload, seed):
    """Every array the first call of a workload consumes."""
    inputs = workload.inputs(seed, 0)
    if isinstance(workload, workloads.PowerWorkload):
        return [g for rep in range(inputs.n_replications)
                for g in workload.replication(inputs, rep)]
    return inputs


def _traced_run(workload, seed):
    tracer = Tracer()
    with tracer.install():
        loop = run.run_loop(workload, seed, count=CALLS)
    assert not loop.errors
    return tracer, loop.outcomes, sum(loop.seconds)


@pytest.mark.parametrize("name", NAMES)
def test_inputs_come_from_the_seed_alone(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = (_drawn(workload, s) for s in (7, 7, 8))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("name", NAMES)
def test_tracing_changes_no_output(name):
    workload = workloads.WORKLOADS[name]
    plain = run.run_loop(workload, 7, count=CALLS)
    assert not plain.errors
    _, traced, _ = _traced_run(workload, 7)
    assert traced == plain.outcomes  # bit-identical statistics and rejection counts


@pytest.mark.parametrize("name", NAMES)
def test_self_times_fit_in_the_call_time(name):
    tracer, _, call_seconds = _traced_run(workloads.WORKLOADS[name], 7)
    totals, _ = tracer.self_times()
    assert all(t >= 0.0 for t in totals.values())
    assert sum(totals.values()) <= call_seconds


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    workload = workloads.WORKLOADS[name]
    first, second = (_traced_run(workload, 7)[0] for _ in range(2))
    keys = ("assignment.solve_assignment", "scores.chi_sq_quantile",
            "sphere_grid.build_grid")
    counts = [{k: t.self_times()[1][k] for k in keys} for t in (first, second)]
    assert counts[0] == counts[1]
    assert first.cost_bytes == second.cost_bytes > 0


def test_tracing_restores_the_library():
    from corank import center_outward, scores

    before = center_outward.solve_assignment, scores.ScoreFunction.vector_scores
    with Tracer().install():
        assert center_outward.solve_assignment is not before[0]
    assert (center_outward.solve_assignment, scores.ScoreFunction.vector_scores) == before


@pytest.mark.parametrize("name", NAMES)
def test_checks_catch_a_wrong_outcome(name):
    workload = workloads.WORKLOADS[name]
    outcome = run.run_loop(workload, 7, count=1).outcomes[0]
    assert workload.verify(7, 0, outcome)
    wrong = list(outcome)
    wrong[0] += 1
    assert not workload.verify(7, 0, wrong)


@pytest.mark.parametrize("name", NAMES)
def test_frozen_reference_matches_this_code(name):
    workload = workloads.WORKLOADS[name]
    frozen = workloads.reference(workload, run.DEFAULT_SEED)
    assert frozen and workloads.reference(workload, run.DEFAULT_SEED + 1) == []
    outcome = run.run_loop(workload, run.DEFAULT_SEED, count=1).outcomes[0]
    assert workload.matches(outcome, frozen[0])
    assert not run.check_outcomes(workloads, workload, run.DEFAULT_SEED, [outcome])
