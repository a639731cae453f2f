"""Independent oracles used only by the tests."""

import itertools

import numpy as np

from corank import InvalidInputError, Pairing

BRUTE_FORCE_MAX_N = 9


def brute_force_assignment(cost):
    """Enumerate all n! bijections; oracle for instances with n <= 9.

    Returns the first permutation (in lexicographic order) attaining the
    minimum, so ties resolve deterministically.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise InvalidInputError(f"cost matrix must be square, got {cost.shape}")
    n = cost.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise InvalidInputError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got n={n}"
        )
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return Pairing(assignment=perms[best].copy(), total_cost=float(totals[best]))
