"""Backend correctness: the exact HiGHS backend solves and streams."""

import numpy as np
import pytest

from repro.ilp.expr import lin_sum
from repro.ilp.highs_backend import HighsBackend, HighsOptions
from repro.ilp.model import Model
from repro.ilp.result import SolveStatus

BACKENDS = [HighsBackend]


def knapsack_model():
    m = Model("knapsack")
    weights = [3, 4, 5, 8, 9, 2, 7]
    values = [4, 5, 6, 10, 12, 1, 9]
    xs = [m.add_binary(f"x{i}") for i in range(len(weights))]
    m.add(lin_sum(w * x for w, x in zip(weights, xs)) <= 15)
    m.maximize(lin_sum(v * x for v, x in zip(values, xs)))
    return m


def set_cover_model():
    # Universe {0..4}, sets with costs; optimum cost 5 ({0,1,2} + {3,4}).
    m = Model("cover")
    sets = {"a": ([0, 1, 2], 3), "b": ([1, 3], 4), "c": ([3, 4], 2), "d": ([0, 4], 4)}
    xs = {name: m.add_binary(name) for name in sets}
    for element in range(5):
        covering = [xs[n] for n, (members, _) in sets.items() if element in members]
        m.add(lin_sum(covering) >= 1)
    m.minimize(lin_sum(cost * xs[n] for n, (_, cost) in sets.items()))
    return m


def infeasible_model():
    m = Model("infeasible")
    x = m.add_binary("x")
    m.add(x >= 0.4)
    m.add(x <= 0.6)  # no integer point
    m.minimize(x)
    return m


@pytest.mark.parametrize("backend_cls", BACKENDS)
class TestBothBackends:
    def test_knapsack_optimum(self, backend_cls):
        res = backend_cls().solve(knapsack_model())
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(19.0)

    def test_set_cover_optimum(self, backend_cls):
        res = backend_cls().solve(set_cover_model())
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)

    def test_solution_is_feasible(self, backend_cls):
        model = knapsack_model()
        res = backend_cls().solve(model)
        assert model.check_feasible(res.x) == []

    def test_infeasible_detected(self, backend_cls):
        res = backend_cls().solve(infeasible_model())
        assert res.status is SolveStatus.INFEASIBLE
        assert res.objective is None

    def test_warm_start_accepted(self, backend_cls):
        model = set_cover_model()
        warm = np.ones(4)  # every set: cost 13, feasible
        res = backend_cls().solve(model, warm_start=warm)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0)

    def test_infeasible_warm_start_rejected(self, backend_cls):
        model = set_cover_model()
        with pytest.raises(ValueError, match="warm start infeasible"):
            backend_cls().solve(model, warm_start=np.array([1.0, 0.0, 0.0, 0.0]))

    def test_equality_constraints(self, backend_cls):
        m = Model()
        x = m.add_integer("x", 0, 10)
        y = m.add_integer("y", 0, 10)
        m.add(x + y == 7)
        m.minimize(2 * x + y)
        res = backend_cls().solve(m)
        assert res.objective == pytest.approx(7.0)  # x=0, y=7

    def test_continuous_mix(self, backend_cls):
        m = Model()
        x = m.add_binary("x")
        z = m.add_continuous("z", 0.0, 2.5)
        m.add(z <= 2 * x)
        m.maximize(z - 0.1 * x)
        res = backend_cls().solve(m)
        assert res.status is SolveStatus.OPTIMAL
        # x=1 allows z=2 (the constraint, not the 2.5 bound, binds).
        assert res.objective == pytest.approx(1.9)

    def test_det_time_positive(self, backend_cls):
        res = backend_cls().solve(knapsack_model())
        assert res.det_time > 0

    def test_incumbents_carry_feasible_x(self, backend_cls):
        model = knapsack_model()
        res = backend_cls().solve(model)
        assert res.incumbents
        assert np.array_equal(res.incumbents[-1].x, res.x)
        for inc in res.incumbents:
            assert inc.x.shape == (model.num_vars,)
            assert np.array_equal(inc.x, np.round(inc.x))  # snapped
            assert model.check_feasible(inc.x) == []
            assert model.objective_of(inc.x) == pytest.approx(inc.objective)


class TestBnBSpecifics:
    """The branch-and-bound side of one HiGHS solve: its incumbent
    stream, its node limit and its dual bound."""

    def test_incumbent_stream_monotone(self):
        res = HighsBackend().solve(set_cover_model(), warm_start=np.ones(4))
        objectives = [inc.objective for inc in res.incumbents]
        # The warm start (cost 13) is the first, time-zero incumbent.
        assert objectives[0] == pytest.approx(13.0)
        assert res.incumbents[0].wall_time == 0.0
        assert objectives == sorted(objectives, reverse=True)
        assert objectives[-1] == pytest.approx(5.0)

    def test_incumbent_det_times_nondecreasing(self):
        warm = np.zeros(7)
        warm[5] = 1.0  # x5 alone
        res = HighsBackend().solve(knapsack_model(), warm_start=warm)
        assert len(res.incumbents) >= 2
        det_times = [inc.det_time for inc in res.incumbents]
        wall_times = [inc.wall_time for inc in res.incumbents]
        assert det_times == sorted(det_times)
        assert wall_times == sorted(wall_times)
        # Maximize: a later incumbent never has a lower objective.
        objectives = [inc.objective for inc in res.incumbents]
        assert objectives == sorted(objectives)

    def test_node_limit_respected(self):
        res = HighsBackend(HighsOptions(node_limit=1)).solve(knapsack_model())
        assert res.node_count <= 1
        # A limit-hit without proof may still return a heuristic solution.
        assert res.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.NO_SOLUTION,
        )

    def test_bound_is_valid(self):
        res = HighsBackend().solve(set_cover_model())
        assert res.bound is not None
        assert res.bound <= res.objective + 1e-6


class TestHighsSpecifics:
    def test_cutoff_from_warm_start_keeps_solution(self):
        # Even with a tiny node budget, the warm start guarantees a result.
        model = set_cover_model()
        warm = np.array([1.0, 0.0, 1.0, 0.0])  # a + c: cost 5 = optimal
        backend = HighsBackend(HighsOptions(node_limit=1))
        res = backend.solve(model, warm_start=warm)
        assert res.status.has_solution()
        assert res.objective == pytest.approx(5.0)

    def test_trace_returns_incumbents(self):
        res = HighsBackend().solve(set_cover_model())
        assert res.status.has_solution()
        assert res.incumbents
        objs = [inc.objective for inc in res.incumbents]
        assert objs == sorted(objs, reverse=True)
        assert objs[-1] == pytest.approx(5.0)

    def test_infeasible_despite_presolve_solve_error(self):
        # HiGHS's presolve reports a solve error on this model; the
        # backend must still prove it infeasible.
        m = Model()
        a, b, c, d = (m.add_binary(name) for name in "abcd")
        m.add(3 * a + 3 * b + 3 * c - 2 * d == 2)
        res = HighsBackend().solve(m)
        assert res.status is SolveStatus.INFEASIBLE
        assert res.objective is None

    def test_unbounded_detected(self):
        m = Model()
        x = m.add_continuous("x", 0.0)
        m.maximize(x)
        res = HighsBackend().solve(m)
        assert res.status in (SolveStatus.UNBOUNDED, SolveStatus.NO_SOLUTION)
