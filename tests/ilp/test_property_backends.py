"""Property-based cross-checks of the HiGHS backend against enumeration.

Random small binary programs (2-6 binaries, at most 64 assignments) must
(a) get the status and optimal objective exhaustive enumeration finds,
and (b) only ever return feasible assignments.  This is the
substrate-level guarantee every mapping result in the reproduction rests
on.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ilp.expr import lin_sum
from repro.ilp.highs_backend import HighsBackend
from repro.ilp.model import Model
from repro.ilp.result import SolveStatus


@st.composite
def random_ilp(draw):
    """A small random binary program with <=-constraints."""
    num_vars = draw(st.integers(2, 6))
    num_cons = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    model = Model("random")
    xs = [model.add_binary(f"x{i}") for i in range(num_vars)]
    for r in range(num_cons):
        coeffs = rng.integers(-4, 5, size=num_vars)
        rhs = int(rng.integers(0, 8))
        model.add(
            lin_sum(int(c) * x for c, x in zip(coeffs, xs)) <= rhs,
            name=f"c{r}",
        )
    obj_coeffs = rng.integers(-5, 6, size=num_vars)
    model.minimize(lin_sum(int(c) * x for c, x in zip(obj_coeffs, xs)))
    return model


def enumerated_optimum(model: Model) -> float | None:
    """The minimum over every feasible 0/1 assignment (``None``: infeasible)."""
    feasible = [
        model.objective_of(x)
        for x in map(np.array, itertools.product((0.0, 1.0), repeat=model.num_vars))
        if not model.check_feasible(x)
    ]
    return min(feasible, default=None)


@settings(max_examples=40, deadline=None)
@given(model=random_ilp())
def test_backends_agree_on_optimum(model):
    highs = HighsBackend().solve(model)
    optimum = enumerated_optimum(model)
    if optimum is None:
        assert highs.status is SolveStatus.INFEASIBLE
    else:
        assert highs.status is SolveStatus.OPTIMAL
        assert highs.objective == pytest.approx(optimum, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(model=random_ilp())
def test_returned_solutions_are_feasible(model):
    res = HighsBackend().solve(model)
    if res.status.has_solution():
        assert model.check_feasible(res.x) == []
        # Reported objective matches the assignment it came with.
        assert model.objective_of(res.x) == pytest.approx(
            res.objective, abs=1e-6
        )


@settings(max_examples=25, deadline=None)
@given(model=random_ilp())
def test_bnb_incumbents_never_beat_optimum_claim(model):
    """No incumbent of HiGHS's branch-and-bound search beats the optimum
    it claims."""
    res = HighsBackend().solve(model)
    if res.status is SolveStatus.OPTIMAL:
        for inc in res.incumbents:
            assert inc.objective >= res.objective - 1e-9
