"""Span tracing for the benchmark's traced runs.

Each traced function is wrapped at the name its caller module holds
(``center_outward.solve_assignment`` is the binding ``empirical_map``
calls, so that is the one rebound).  Nothing under ``src/`` changes.
Spans (name, start, end, parent) are kept in memory and written out when
the run ends; a layer's self time is its span time minus the time its
child spans cover.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# The modules of the library, in the order the per-layer totals are reported.
LAYERS = (
    "assignment",
    "scores",
    "sphere_grid",
    "center_outward",
    "rank_tests",
    "baselines",
    "distributions",
    "simulation",
)


def _bindings():
    """(object holding the binding, attribute, span name) for every traced call.

    The bindings of ``workloads``, the benchmark module that calls into the
    library, are traced too where the timed call uses them.  Its
    ``sample``, which draws inputs outside the timed call, is not.
    """
    import workloads as caller
    from corank import (
        baselines,
        center_outward,
        rank_tests,
        scores,
        simulation,
    )

    return [
        (center_outward, "squared_cost", "assignment.squared_cost"),
        (center_outward, "solve_assignment", "assignment.solve_assignment"),
        (scores.ScoreFunction, "vector_scores", "scores.vector_scores"),
        (scores, "chi_sq_quantile", "scores.chi_sq_quantile"),
        (rank_tests, "chi_sq_sf", "scores.chi_sq_sf"),
        (baselines, "chi_sq_sf", "scores.chi_sq_sf"),
        (center_outward, "build_grid", "sphere_grid.build_grid"),
        (rank_tests, "build_grid", "sphere_grid.build_grid"),
        (simulation, "build_grid", "sphere_grid.build_grid"),
        (rank_tests, "empirical_map", "center_outward.empirical_map"),
        (rank_tests, "ranks_signs", "center_outward.ranks_signs"),
        (simulation, "two_sample_test", "rank_tests.two_sample_test"),
        (caller, "two_sample_test", "rank_tests.two_sample_test"),
        (rank_tests, "k_sample_statistic", "rank_tests.k_sample_statistic"),
        (baselines, "k_sample_statistic", "rank_tests.k_sample_statistic"),
        (rank_tests, "standardize_design", "rank_tests.standardize_design"),
        (simulation, "sphericized_center_outward_test",
         "baselines.sphericized_center_outward_test"),
        (simulation, "elliptical_rank_test", "baselines.elliptical_rank_test"),
        (simulation, "hotelling_two_sample", "baselines.hotelling_two_sample"),
        (simulation, "sample", "distributions.sample"),
        (caller, "run_power_study", "simulation.run_power_study"),
    ]


class Tracer:
    """In-memory span recorder; install() rebinds the traced names."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.cost_bytes = 0
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_solver = name == "assignment.solve_assignment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_solver:  # the dense float64 cost matrix, computed from its shape
                self.cost_bytes += args[0].size * 8
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    @contextmanager
    def install(self):
        saved = []
        try:
            for owner, attr, name in _bindings():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Per span name: (self seconds, call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        counts = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
            counts[name] += 1
        return totals, counts

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent])
