import numpy as np
import pytest

from qsvtsim import SolverOptions, families, residual, solve_phases


@pytest.fixture(scope="session")
def family_solutions():
    """Lazily solved phases per family, shared across the whole session."""
    cache = {}

    def get(name, **args):
        key = (name, tuple(sorted(args.items())))
        if key not in cache:
            target = families.family_target(name, args)
            seq = solve_phases(target, SolverOptions())
            cache[key] = (target, seq, residual(seq, target))
        return cache[key]

    return get


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


@pytest.fixture(scope="session")
def first_difference():
    """Index of the first item where two long texts differ, None if they are
    equal: a failed comparison reports it at once, where pytest's own diff of
    one long line takes minutes."""

    def get(got, want):
        if got == want:
            return None
        return next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                    min(len(got), len(want)))

    return get
