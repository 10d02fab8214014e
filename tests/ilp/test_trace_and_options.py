"""Tests for solve_with_trace details and HighsOptions plumbing."""

import numpy as np
import pytest

from repro.ilp.expr import lin_sum
from repro.ilp.highs_backend import HighsBackend, HighsOptions, solve_with_trace
from repro.ilp.model import Model
from repro.ilp.result import SolveStatus


def cover_model():
    m = Model("cover")
    sets = {"a": ([0, 1, 2], 3), "b": ([1, 3], 4), "c": ([3, 4], 2), "d": ([0, 4], 4)}
    xs = {name: m.add_binary(name) for name in sets}
    for element in range(5):
        covering = [xs[n] for n, (members, _) in sets.items() if element in members]
        m.add(lin_sum(covering) >= 1)
    m.minimize(lin_sum(cost * xs[n] for n, (_, cost) in sets.items()))
    return m


def knapsack_model():
    """A 20-item 0/1 knapsack (optimum 481) HiGHS does not close at the root."""
    rng = np.random.default_rng(0)
    weights = rng.integers(10, 60, 20)
    values = rng.integers(10, 60, 20)
    m = Model("knapsack")
    xs = [m.add_binary(f"x{i}") for i in range(20)]
    m.add(lin_sum(int(w) * x for w, x in zip(weights, xs)) <= int(weights.sum() // 2))
    m.maximize(lin_sum(int(v) * x for v, x in zip(values, xs)))
    return m


class TestHighsOptions:
    def test_to_scipy_passes_limits(self):
        opts = HighsOptions(time_limit=3.5, mip_rel_gap=0.01, node_limit=7)
        scipy_opts = opts.to_scipy()
        assert scipy_opts["time_limit"] == 3.5
        assert scipy_opts["mip_rel_gap"] == 0.01
        assert scipy_opts["node_limit"] == 7
        assert scipy_opts["disp"] is False

    def test_defaults_omit_limits(self):
        scipy_opts = HighsOptions().to_scipy()
        assert "time_limit" not in scipy_opts
        assert "node_limit" not in scipy_opts

    def test_gap_option_accepts_suboptimal_stop(self):
        # A generous gap still returns a solution with status optimal-or-
        # feasible; both are usable downstream.
        res = HighsBackend(HighsOptions(mip_rel_gap=0.5)).solve(cover_model())
        assert res.status.has_solution()

    def test_loose_gap_stop_is_not_reported_optimal(self):
        # HiGHS's first incumbent here (455) is within 10% of its bound,
        # so SciPy reports status 0 at the loose gap; the true optimum
        # is 481, so the stop proves nothing beyond the gap.
        loose = HighsBackend(HighsOptions(mip_rel_gap=0.1)).solve(knapsack_model())
        exact = HighsBackend().solve(knapsack_model())
        assert exact.status is SolveStatus.OPTIMAL
        assert loose.objective < exact.objective
        assert loose.status is SolveStatus.FEASIBLE
        assert loose.bound >= exact.objective

    def test_tight_gap_stop_stays_optimal(self):
        for gap in (None, 1e-6, 1e-4):
            res = HighsBackend(HighsOptions(mip_rel_gap=gap)).solve(knapsack_model())
            assert res.status is SolveStatus.OPTIMAL
            assert res.objective == pytest.approx(481.0)


class TestSolveWithTrace:
    def test_warm_start_is_time_zero_incumbent(self):
        warm = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}  # cost 13
        res = solve_with_trace(cover_model(), total_time=2.0, num_slices=3,
                               warm_start=warm)
        assert res.incumbents[0].det_time == 0.0
        assert res.incumbents[0].objective == pytest.approx(13.0)
        assert res.incumbents[-1].objective == pytest.approx(5.0)

    def test_trace_det_times_nondecreasing(self):
        res = solve_with_trace(cover_model(), total_time=1.0, num_slices=3)
        stamps = [inc.det_time for inc in res.incumbents]
        assert stamps == sorted(stamps)

    def test_stops_early_on_optimal(self):
        res = solve_with_trace(cover_model(), total_time=60.0, num_slices=4)
        assert res.status is SolveStatus.OPTIMAL
        assert res.wall_time < 30.0  # nowhere near the nominal budget

    def test_incumbent_values_usable(self):
        model = cover_model()
        res = solve_with_trace(model, total_time=1.0, num_slices=2)
        for inc in res.incumbents:
            assert inc.values is not None
            assert model.check_feasible(dict(inc.values)) == []


class TestResultHelpers:
    def test_gap_and_value(self):
        res = HighsBackend().solve(cover_model())
        assert res.gap() == pytest.approx(0.0, abs=1e-6)
        assert res.value("a") in (0.0, 1.0)

    def test_value_without_solution_raises(self):
        m = Model()
        x = m.add_binary("x")
        m.add(x >= 0.4)
        m.add(x <= 0.6)
        m.minimize(x)
        res = HighsBackend().solve(m)
        with pytest.raises(ValueError):
            res.value("x")
