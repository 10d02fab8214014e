"""End-to-end exploration: explorer tiers, drivers, store resume.

Everything runs on a deliberately tiny space (one small Table-I twin,
two pools, two formulations = 4 scenarios, 6 grid solves) so the full
greedy → ILP → frontier → resume path stays tier-1 fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.drivers import explore_adaptive, explore_grid
from repro.dse.explorer import Explorer
from repro.dse.objectives import objective_matrix
from repro.dse.pareto import nondominated_mask
from repro.dse.scenario import (
    ArchitectureSpec,
    DesignSpace,
    FormulationSpec,
    WorkloadSpec,
    default_space,
)
from repro.dse.store import TIER_GREEDY, TIER_ILP, RunStore

pytestmark = pytest.mark.dse

TIME_LIMIT = 4.0


@pytest.fixture(scope="module")
def tiny_space() -> DesignSpace:
    return DesignSpace(
        architectures=(
            ArchitectureSpec(kind="homogeneous", dimension=12),
            ArchitectureSpec(kind="heterogeneous"),
        ),
        workloads=(WorkloadSpec(network="C", scale=0.1, profile="uniform"),),
        formulations=(
            FormulationSpec(stages=("area",)),
            FormulationSpec(stages=("area", "snu")),
        ),
    )


class TestGreedyTier:
    def test_scores_without_ilp(self, tiny_space):
        explorer = Explorer(time_limit=TIME_LIMIT)
        results = explorer.evaluate_greedy(tiny_space.scenarios())
        assert len(results) == 4
        assert all(r.ok for r in results)
        assert all(r.solves == 0 for r in results)
        assert all(r.tier == TIER_GREEDY for r in results)
        for result in results:
            obj = result.objectives
            assert obj.area > 0 and obj.energy > 0 and obj.latency > 0

    def test_second_pass_resumes_from_store(self, tiny_space):
        explorer = Explorer(time_limit=TIME_LIMIT)
        explorer.evaluate_greedy(tiny_space.scenarios())
        again = explorer.evaluate_greedy(tiny_space.scenarios())
        assert all(r.from_store for r in again)


class TestGridDriver:
    def test_full_sweep_and_frontier(self, tiny_space):
        result = explore_grid(
            tiny_space, Explorer(time_limit=TIME_LIMIT)
        )
        assert result.driver == "grid"
        assert len(result.ok_results()) == 4
        assert result.ilp_solves == 6  # 2 scenarios x 1 stage + 2 x 2
        frontier = result.frontier()
        assert frontier
        # The frontier really is the non-dominated subset of all points.
        points = objective_matrix([r.objectives for r in result.ok_results()])
        mask = nondominated_mask(points)
        frontier_fps = {r.fingerprint for r in frontier}
        for r, keep in zip(result.ok_results(), mask):
            assert (r.fingerprint in frontier_fps) == bool(keep)
        assert result.hypervolume() > 0

    def test_ilp_improves_on_greedy_bound(self, tiny_space):
        explorer = Explorer(time_limit=TIME_LIMIT)
        greedy = explorer.evaluate_greedy(tiny_space.scenarios())
        ilp = explorer.evaluate_ilp(tiny_space.scenarios())
        for g, i in zip(greedy, ilp):
            assert i.objectives.area <= g.objectives.area + 1e-9

    def test_report_and_json_are_renderable(self, tiny_space):
        result = explore_grid(tiny_space, Explorer(time_limit=TIME_LIMIT))
        text = result.report()
        assert "non-dominated" in text
        payload = result.to_json()
        assert payload["driver"] == "grid"
        assert payload["frontier"]
        assert payload["hypervolume"] > 0


class TestResume:
    def test_grid_resumes_without_resolving(self, tiny_space, tmp_path):
        path = tmp_path / "runs.jsonl"
        first = explore_grid(
            tiny_space, Explorer(store=RunStore(path), time_limit=TIME_LIMIT)
        )
        assert first.ilp_solves > 0
        second = explore_grid(
            tiny_space, Explorer(store=RunStore(path), time_limit=TIME_LIMIT)
        )
        assert second.ilp_solves == 0
        assert second.resumed == 4
        # Rehydrated objective vectors are bit-identical to the originals.
        first_by_fp = {r.fingerprint: r for r in first.ok_results()}
        for r in second.ok_results():
            np.testing.assert_array_equal(
                r.objectives.vector(), first_by_fp[r.fingerprint].objectives.vector()
            )

    def test_partial_store_only_solves_the_gap(self, tiny_space, tmp_path):
        path = tmp_path / "runs.jsonl"
        scenarios = tiny_space.scenarios()
        explore_grid(
            scenarios[:2], Explorer(store=RunStore(path), time_limit=TIME_LIMIT)
        )
        rest = explore_grid(
            scenarios, Explorer(store=RunStore(path), time_limit=TIME_LIMIT)
        )
        assert rest.resumed == 2
        assert 0 < rest.ilp_solves < 6

    def test_failed_entries_are_retried(self, tiny_space, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        explorer = Explorer(store=store, time_limit=TIME_LIMIT)
        scenario = tiny_space.scenarios()[0]
        fingerprint = explorer.registry.fingerprint(scenario)
        from repro.dse.store import RunEntry

        store.record(
            RunEntry(fingerprint=fingerprint, tier=TIER_ILP,
                     scenario=scenario.payload(), status="error",
                     error="transient crash")
        )
        result = explorer.evaluate_ilp([scenario])[0]
        assert result.ok
        assert not result.from_store


class TestConstructionErrors:
    """A bad axis value fails its own scenario, never the sweep."""

    @pytest.fixture
    def mixed(self, tiny_space):
        from repro.dse.scenario import Scenario

        bad = Scenario(
            architecture=ArchitectureSpec(),
            workload=WorkloadSpec(network="Z", scale=0.1, profile="uniform"),
            formulation=FormulationSpec(),
        )
        return [bad, *tiny_space.scenarios()]

    def test_greedy_records_the_error_and_scores_the_rest(self, mixed):
        results = Explorer(time_limit=TIME_LIMIT).evaluate_greedy(mixed)
        assert not results[0].ok
        assert "Z" in results[0].error
        assert results[0].fingerprint.startswith("invalid-")
        assert all(r.ok for r in results[1:])

    def test_ilp_records_the_error_and_solves_the_rest(self, mixed):
        results = Explorer(time_limit=TIME_LIMIT).evaluate_ilp(mixed)
        assert not results[0].ok
        assert all(r.ok for r in results[1:])

    def test_adaptive_reports_greedy_failures_in_results(self, mixed):
        result = explore_adaptive(mixed, Explorer(time_limit=TIME_LIMIT))
        failed = [r for r in result.results if not r.ok]
        assert len(failed) == 1
        assert "Z" in failed[0].error
        assert len(result.results) + len(result.pruned) == 5

    def test_grid_deduplicates_duplicate_spellings(self, tiny_space):
        scenarios = tiny_space.scenarios()
        doubled = scenarios + scenarios
        result = explore_grid(doubled, Explorer(time_limit=TIME_LIMIT))
        assert len(result.results) == 4  # one row per instance
        assert result.ilp_solves == 6  # duplicates don't double-count

    def test_unmappable_instance_is_a_per_scenario_error(self, tiny_space):
        # C at scale 0.1 has fan-in 8 — an 8-wide pool leaves no slack,
        # a 4-wide pool is outright unmappable.
        from repro.dse.scenario import Scenario

        unmappable = Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=4),
            workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
            formulation=FormulationSpec(),
        )
        results = Explorer(time_limit=TIME_LIMIT).evaluate_ilp(
            [unmappable, *tiny_space.scenarios()]
        )
        assert not results[0].ok
        assert "fan-in" in results[0].error
        assert all(r.ok for r in results[1:])


class TestAdaptiveDriver:
    def test_budget_is_met_by_construction(self, tiny_space):
        grid = explore_grid(tiny_space, Explorer(time_limit=TIME_LIMIT))
        adaptive = explore_adaptive(
            tiny_space, Explorer(time_limit=TIME_LIMIT)
        )
        assert adaptive.driver == "adaptive"
        assert adaptive.ilp_solves <= grid.ilp_solves // 2
        assert adaptive.greedy_evaluations == 4

    def test_budget_counts_the_solves_the_grid_executes(self, tiny_space):
        """Profile twins share the grid's solves, so they share the budget's."""
        space = DesignSpace(
            architectures=tiny_space.architectures,
            workloads=(
                WorkloadSpec(network="C", scale=0.1, profile="uniform"),
                WorkloadSpec(network="C", scale=0.1, profile="hotspot", num_samples=2),
            ),
            formulations=tiny_space.formulations,
        )
        grid = explore_grid(space, Explorer(time_limit=TIME_LIMIT))
        adaptive = explore_adaptive(space, Explorer(time_limit=TIME_LIMIT))
        assert grid.ilp_solves == 6  # 8 scenarios, 2 of each solve key
        assert adaptive.meta["grid_solve_estimate"] == grid.ilp_solves
        assert adaptive.ilp_solves <= grid.ilp_solves // 2

    def test_every_scenario_is_evaluated_or_pruned(self, tiny_space):
        adaptive = explore_adaptive(tiny_space, Explorer(time_limit=TIME_LIMIT))
        assert len(adaptive.results) + len(adaptive.pruned) == 4

    def test_adaptive_points_match_grid_points(self, tiny_space):
        """Whatever the adaptive driver does evaluate agrees with the grid."""
        grid = explore_grid(tiny_space, Explorer(time_limit=TIME_LIMIT))
        adaptive = explore_adaptive(
            tiny_space, Explorer(time_limit=TIME_LIMIT)
        )
        grid_by_fp = {r.fingerprint: r for r in grid.ok_results()}
        for r in adaptive.ok_results():
            assert r.fingerprint in grid_by_fp

    def test_invalid_knobs_rejected(self, tiny_space):
        explorer = Explorer(time_limit=TIME_LIMIT)
        with pytest.raises(ValueError, match="keep"):
            explore_adaptive(tiny_space, explorer, keep=0.0)
        with pytest.raises(ValueError, match="budget_fraction"):
            explore_adaptive(tiny_space, explorer, budget_fraction=1.5)
        with pytest.raises(ValueError, match="rung"):
            explore_adaptive(tiny_space, explorer, max_rungs=0)
        with pytest.raises(ValueError, match="prune_slack"):
            explore_adaptive(tiny_space, explorer, prune_slack=1.0)


class TestAnswerDependsOnlyOnItsScenario:
    """An explorer carries nothing between scenarios: the same scenario
    gets the same point whatever was solved before it.  The area+snu
    scenario below has equal-area placements with different routes, so
    a solution carried over from its ``area`` sibling would steer it
    to a worse tie (energy 57.48, latency 13 against 56.48, 12)."""

    TARGET = "Cx0.12-uniform/het8/area+snu"
    SIBLING = "Cx0.12-uniform/het8/area"

    @pytest.fixture(scope="class")
    def scenarios(self):
        by_name = {s.name: s for s in default_space().scenarios()}
        return by_name[self.SIBLING], by_name[self.TARGET]

    @pytest.fixture(scope="class")
    def fresh(self, scenarios):
        (result,) = Explorer(time_limit=TIME_LIMIT).evaluate_ilp([scenarios[1]])
        assert result.ok
        return result.objectives

    def test_sibling_in_the_same_call(self, scenarios, fresh):
        _, target = Explorer(time_limit=TIME_LIMIT).evaluate_ilp(
            list(scenarios)
        )
        assert target.objectives == fresh

    def test_sibling_in_an_earlier_call(self, scenarios, fresh):
        explorer = Explorer(time_limit=TIME_LIMIT)
        explorer.evaluate_ilp([scenarios[0]])
        (target,) = explorer.evaluate_ilp([scenarios[1]])
        assert target.objectives == fresh


class TestProfileVariantIsReScored:
    """Area and SNU never read the profile, so a scenario that differs
    from a solved one only in its profile family shares that solve: a
    proven-optimal store entry under the same solve key is re-scored
    under the new profile, at zero solves, with the same assignment and
    objectives a fresh explorer's solve gets."""

    SOLVED = "Ex0.12-uniform/het8/area+snu"
    VARIANT = "Ex0.12-hotspot/het8/area+snu"

    @pytest.fixture(scope="class")
    def scenarios(self):
        by_name = {s.name: s for s in default_space().scenarios()}
        return by_name[self.SOLVED], by_name[self.VARIANT]

    def test_variant_costs_zero_solves(self, scenarios):
        solved, variant = scenarios
        explorer = Explorer(time_limit=TIME_LIMIT)
        (first,) = explorer.evaluate_ilp([solved])
        assert first.optimal and first.solves == 2
        (reused,) = explorer.evaluate_ilp([variant])
        (fresh,) = Explorer(time_limit=TIME_LIMIT).evaluate_ilp([variant])
        assert reused.solves == 0 and reused.from_store
        assert fresh.solves == 2 and not fresh.from_store
        assert reused.assignment == fresh.assignment
        assert reused.objectives == fresh.objectives
        # The profile only scores the mapping: energy moves, area does not.
        assert reused.objectives.area == first.objectives.area
        assert reused.objectives.energy != first.objectives.energy
        entry = explorer.store.get(reused.fingerprint)
        assert entry.solves == 0 and entry.optimal
        assert entry.solve_key == first.solve_key
        assert entry.meta["solved_as"] == first.fingerprint

    def test_feasible_entry_is_never_served_by_solve_key(self, scenarios):
        from repro.dse.fidelity import rung_solver_spec

        solved, variant = scenarios
        spec = rung_solver_spec(1, 3)  # gap 0.10, 200-node cap
        explorer = Explorer(time_limit=TIME_LIMIT, portfolio=True)
        (first,) = explorer.evaluate_ilp([solved], solver_spec=spec)
        assert first.ok and not first.optimal
        assert explorer.store.get(first.fingerprint).solve_key == first.solve_key
        (second,) = explorer.evaluate_ilp([variant], solver_spec=spec)
        assert second.solves == 2 and not second.from_store
