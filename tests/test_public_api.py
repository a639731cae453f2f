"""The names ``import corank`` offers."""

import types

import corank


def test_all_lists_exactly_the_public_bindings():
    bound = {
        name for name, value in vars(corank).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(corank.__all__)) == len(corank.__all__)
    assert set(corank.__all__) == bound
    for name in corank.__all__:
        assert getattr(corank, name) is not None


def test_the_solver_is_internal():
    # empirical_map reduces its own cost matrix in place; general
    # matrices are SciPy's linear_sum_assignment's to solve
    for name in ("solve_assignment", "Pairing"):
        assert name not in corank.__all__
        assert not hasattr(corank, name)
