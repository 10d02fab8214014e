"""Tests for the LP-rounding warm start."""

from repro.ilp.expr import lin_sum
from repro.ilp.greedy_rounding import lp_rounding_warm_start
from repro.ilp.model import Model


class TestLpRoundingWarmStart:
    def test_finds_feasible_point(self):
        m = Model()
        xs = [m.add_binary(f"x{i}") for i in range(5)]
        m.add(lin_sum(xs) >= 2)
        m.minimize(lin_sum(xs))
        values = lp_rounding_warm_start(m)
        assert values is not None
        assert m.check_feasible(values) == []

    def test_infeasible_returns_none(self):
        m = Model()
        x = m.add_binary("x")
        m.add(x >= 0.4)
        m.add(x <= 0.6)
        m.minimize(x)
        assert lp_rounding_warm_start(m) is None

    def test_already_integral_lp(self):
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y == 2)  # forces both to 1 even in the relaxation
        m.minimize(x)
        x = lp_rounding_warm_start(m)
        assert x.tolist() == [1.0, 1.0]
