"""Tests for the HiGHS incumbent stream and HighsOptions plumbing."""

import numpy as np
import pytest

from repro import trace
from repro.ilp import highs_backend
from repro.ilp.expr import lin_sum
from repro.ilp.highs_backend import HighsBackend, HighsOptions, highs_option_values
from repro.ilp.model import Model
from repro.ilp.result import SolveStatus
from repro.ilp.solve import SolverSpec, solve_model
from repro.trace import TraceRuntime, mint_context, read_trace_dir


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
    def test_option_values_pass_limits(self):
        opts = HighsOptions(time_limit=3.5, mip_rel_gap=0.01, node_limit=7)
        values = highs_option_values(opts)
        assert values == {
            "output_flag": False,
            "time_limit": 3.5,
            "mip_rel_gap": 0.01,
            "mip_max_nodes": 7,
        }

    def test_defaults_omit_limits(self):
        assert highs_option_values(HighsOptions()) == {"output_flag": False}

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
    """One HiGHS solve carries its own incumbent stream."""

    def test_warm_start_is_time_zero_incumbent(self):
        warm = np.ones(4)  # every set: cost 13
        res = HighsBackend().solve(cover_model(), warm_start=warm)
        assert res.incumbents[0].det_time == 0.0
        assert res.incumbents[0].wall_time == 0.0
        assert res.incumbents[0].objective == pytest.approx(13.0)
        assert res.incumbents[-1].objective == pytest.approx(5.0)

    def test_trace_det_times_nondecreasing(self):
        res = HighsBackend().solve(knapsack_model())
        stamps = [inc.det_time for inc in res.incumbents]
        assert stamps == sorted(stamps)

    def test_stops_early_on_optimal(self):
        res = HighsBackend(HighsOptions(time_limit=60.0)).solve(cover_model())
        assert res.status is SolveStatus.OPTIMAL
        assert res.wall_time < 30.0  # nowhere near the nominal budget

    def test_incumbent_values_usable(self):
        model = knapsack_model()
        res = HighsBackend().solve(model)
        assert res.incumbents
        for inc in res.incumbents:
            assert model.check_feasible(inc.x) == []
            assert model.objective_of(inc.x) == pytest.approx(inc.objective)


class TestCallbacks:
    """What the HiGHS callbacks report, and what happens when they raise."""

    def _raise_on_first_incumbent(self, monkeypatch, exc):
        calls = []

        def progress(name="progress", **attrs):
            calls.append(name)
            if name == "incumbent":
                raise exc

        monkeypatch.setattr(trace, "progress", progress)
        return calls

    def test_traced_solve_reports_objective_bound_and_gap(self, tmp_path):
        trace.install(TraceRuntime(tmp_path, "test-proc"))
        try:
            context = mint_context()
            with trace.activate(context, "job-1"):
                res = HighsBackend().solve(knapsack_model())
        finally:
            trace.uninstall()
        events = [
            r for r in read_trace_dir(tmp_path, context.trace_id)
            if r["kind"] == "event"
        ]
        assert [e["name"] for e in events].count("incumbent") >= 1
        assert events[-1]["name"] == "bound"
        for key in ("objective", "bound", "gap", "nodes"):
            assert key in events[-1]["attrs"]
        assert events[-1]["attrs"]["objective"] == pytest.approx(res.objective)

    def test_error_in_callback_stops_the_search_and_is_reraised(self, monkeypatch):
        calls = self._raise_on_first_incumbent(monkeypatch, RuntimeError("boom"))
        ended: list[str] = []
        load = highs_backend._load

        class RunSpy:
            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def run(self):
                try:
                    return self.highs.run()
                finally:
                    status = self.highs.getModelStatus()
                    ended.append(self.highs.modelStatusToString(status))

        monkeypatch.setattr(highs_backend, "_load", lambda *a: RunSpy(load(*a)))
        with pytest.raises(RuntimeError, match="boom"):
            HighsBackend().solve(knapsack_model())
        # The first incumbent raised; HiGHS reported nothing after it and
        # ended its run cleanly instead of unwinding with status "Not Set".
        assert calls == ["incumbent"]
        assert ended == ["Interrupted by user"]

    def test_keyboard_interrupt_in_callback_degrades_to_warm_start(
        self, monkeypatch
    ):
        self._raise_on_first_incumbent(monkeypatch, KeyboardInterrupt())
        model = knapsack_model()
        warm = np.zeros(model.num_vars)
        warm[0] = 1.0  # x0 alone
        res = solve_model(model, SolverSpec(), warm_start=warm)
        assert res.backend == "highs-interrupted"
        assert res.status is SolveStatus.FEASIBLE
        assert res.objective == pytest.approx(model.objective_of(warm))


class TestResultHelpers:
    def test_gap_and_value(self):
        res = HighsBackend().solve(cover_model())
        assert res.gap() == pytest.approx(0.0, abs=1e-6)
        assert res.x[0] in (0.0, 1.0)  # column 0 is set "a"

    def test_no_solution_has_no_x(self):
        m = Model()
        x = m.add_binary("x")
        m.add(x >= 0.4)
        m.add(x <= 0.6)
        m.minimize(x)
        res = HighsBackend().solve(m)
        assert res.x is None
        assert res.incumbents == []
