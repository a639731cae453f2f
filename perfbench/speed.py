"""A machine-speed probe that no library code touches.

On a shared machine the speed of one core drifts by up to 2x within a
minute.  The probe times one fixed SciPy assignment (a Cauchy sample of
300 points onto a polar grid, about 15 ms) between the benchmark's calls;
its time follows that drift, so each call's time is scaled to a machine
on which the probe takes ``NOMINAL_S``.  Over 20-second windows this cut
the spread of window medians from 0.11-0.13 to 0.02-0.06 of the median,
for a fixed n = 1000 assignment, three n = 400 assignments and 40 vdw
quantiles alike (shared 2-core Xeon VM, Python 3.11, SciPy 1.17).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

NOMINAL_S = 0.015
# The probe's polar grid: N_R radii times N_S directions, one point each.
N_R = 15
N_S = 20
SEED = 20200729


class SpeedProbe:
    """Call to time the probe; ``factor`` turns two probe times into a scale."""

    def __init__(self):
        rng = np.random.default_rng(SEED)
        sample = rng.standard_cauchy((N_R * N_S, 2))
        radius = np.repeat(np.arange(1, N_R + 1) / (N_R + 1), N_S)
        angle = np.tile(2.0 * np.pi * np.arange(N_S) / N_S, N_R)
        grid = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
        self.cost = cdist(sample, grid, "sqeuclidean")

    def __call__(self):
        start = time.perf_counter()
        linear_sum_assignment(self.cost)
        return time.perf_counter() - start

    @staticmethod
    def factor(*probe_seconds):
        """Scale from this machine's speed, over the given probes, to nominal."""
        return NOMINAL_S * len(probe_seconds) / sum(probe_seconds)
