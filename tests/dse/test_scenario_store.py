"""Scenario registry fingerprints and the resumable JSONL run store."""

from __future__ import annotations

import json

import pytest

from repro.dse.scenario import (
    ArchitectureSpec,
    DesignSpace,
    FormulationSpec,
    Scenario,
    ScenarioRegistry,
    WorkloadSpec,
    default_space,
)
from repro.dse.store import TIER_GREEDY, TIER_ILP, RunEntry, RunStore
from repro.mapping.precision import PrecisionSpec

pytestmark = pytest.mark.dse

SMALL = WorkloadSpec(network="C", scale=0.1, profile="uniform")


def _scenario(**kwargs) -> Scenario:
    return Scenario(
        architecture=kwargs.get("architecture", ArchitectureSpec()),
        workload=kwargs.get("workload", SMALL),
        formulation=kwargs.get("formulation", FormulationSpec()),
    )


class TestSpecs:
    def test_unknown_architecture_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ArchitectureSpec(kind="fpga")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            WorkloadSpec(profile="adversarial")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="stages"):
            FormulationSpec(stages=("area", "quantum"))

    def test_empty_stage_prefix_rejected(self):
        with pytest.raises(ValueError, match="stage"):
            FormulationSpec(stages=())

    def test_labels_are_readable(self):
        scenario = _scenario(
            formulation=FormulationSpec(
                stages=("area", "snu"),
                precision=PrecisionSpec(weight_bits=4, cell_bits=2),
            )
        )
        assert scenario.name == "Cx0.1-uniform/het8/area+snu-w4c2"
        assert scenario.slices == 2


class TestDesignSpace:
    def test_len_is_the_cross_product(self):
        space = default_space()
        assert len(space) == len(space.scenarios()) == 24

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DesignSpace(architectures=(), workloads=(SMALL,),
                        formulations=(FormulationSpec(),))

    def test_default_space_meets_the_acceptance_shape(self):
        space = default_space()
        assert len(space.architectures) >= 2
        assert len({w.profile for w in space.workloads}) >= 2
        assert len({w.network for w in space.workloads}) >= 2
        assert len(space.formulations) >= 2
        assert len(space) >= 24

    def test_scenarios_are_workload_major(self):
        """Neighbors share a workload, so registry memoization pays off."""
        scenarios = default_space().scenarios()
        per_block = len(scenarios) // len(default_space().workloads)
        first_block = scenarios[:per_block]
        assert len({s.workload for s in first_block}) == 1


class TestFingerprints:
    def test_deterministic_across_registries(self):
        scenario = _scenario()
        assert ScenarioRegistry().fingerprint(scenario) == ScenarioRegistry(
        ).fingerprint(scenario)

    def test_axis_changes_change_the_fingerprint(self):
        registry = ScenarioRegistry()
        base = registry.fingerprint(_scenario())
        assert registry.fingerprint(
            _scenario(architecture=ArchitectureSpec(kind="homogeneous"))
        ) != base
        assert registry.fingerprint(
            _scenario(formulation=FormulationSpec(stages=("area", "snu")))
        ) != base
        assert registry.fingerprint(
            _scenario(workload=WorkloadSpec(network="C", scale=0.1,
                                            profile="hotspot"))
        ) != base

    def test_uniform_profile_ignores_simulation_knobs(self):
        """Resume must hit uniform entries across --num-samples values."""
        registry = ScenarioRegistry()
        base = registry.fingerprint(_scenario())
        assert registry.fingerprint(
            _scenario(workload=WorkloadSpec(network="C", scale=0.1,
                                            profile="uniform",
                                            num_samples=2, window=8, seed=7))
        ) == base

    def test_simulated_profiles_keep_the_simulation_knobs(self):
        registry = ScenarioRegistry()
        hotspot = WorkloadSpec(network="C", scale=0.1, profile="hotspot")
        assert registry.fingerprint(_scenario(workload=hotspot)) != (
            registry.fingerprint(
                _scenario(workload=WorkloadSpec(network="C", scale=0.1,
                                                profile="hotspot", seed=9))
            )
        )

    def test_mesh_width_changes_the_fingerprint(self):
        registry = ScenarioRegistry()
        assert registry.fingerprint(_scenario()) != registry.fingerprint(
            _scenario(architecture=ArchitectureSpec(mesh_width=2))
        )

    def test_registry_memoizes_networks(self):
        registry = ScenarioRegistry()
        first = registry.network(SMALL)
        again = registry.network(
            WorkloadSpec(network="C", scale=0.1, profile="hotspot")
        )
        assert first is again  # same (name, scale) → same instance

    def test_to_job_carries_every_axis(self):
        registry = ScenarioRegistry()
        scenario = _scenario(
            formulation=FormulationSpec(
                stages=("area",), precision=PrecisionSpec(4, 2)
            )
        )
        job = registry.to_job(scenario, time_limit=7.0)
        assert job.stages == ("area",)
        assert job.precision == PrecisionSpec(4, 2)
        assert job.area_time_limit == 7.0
        assert job.profile is not None


def _entry(fingerprint: str, tier: str = TIER_ILP, **kwargs) -> RunEntry:
    return RunEntry(
        fingerprint=fingerprint,
        tier=tier,
        scenario={"kind": "scenario"},
        status=kwargs.pop("status", "ok"),
        objectives=kwargs.pop(
            "objectives", {"area": 1.0, "energy": 2.0, "latency": 3.0}
        ),
        **kwargs,
    )


class TestRunStore:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).record(_entry("abc", solves=2, wall_time=1.5))
        loaded = RunStore(path)
        entry = loaded.get("abc")
        assert entry is not None and entry.ok
        assert entry.solves == 2
        assert entry.objectives["energy"] == 2.0

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.record(_entry("abc", objectives={"area": 1.0, "energy": 1.0,
                                               "latency": 1.0}))
        store.record(_entry("abc", objectives={"area": 9.0, "energy": 9.0,
                                               "latency": 9.0}))
        assert RunStore(path).get("abc").objectives["area"] == 9.0
        assert len(RunStore(path)) == 1  # keyed, not a log

    def test_tiers_are_independent_keys(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.record(_entry("abc", tier=TIER_GREEDY))
        store.record(_entry("abc", tier=TIER_ILP))
        loaded = RunStore(path)
        assert len(loaded) == 2
        assert loaded.get("abc", TIER_GREEDY) is not None
        assert loaded.get("abc", TIER_ILP) is not None

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).record(_entry("abc"))
        with path.open("a") as handle:
            handle.write('{"format": 1, "fingerprint": "tor')  # crash mid-write
        loaded = RunStore(path)
        assert len(loaded) == 1
        assert loaded.skipped_lines == 1

    def test_stale_format_is_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        with path.open("w") as handle:
            handle.write(json.dumps({"format": 0, "fingerprint": "old",
                                     "tier": TIER_ILP, "status": "ok"}) + "\n")
        loaded = RunStore(path)
        assert len(loaded) == 0
        assert loaded.skipped_lines == 1

    def test_failed_entries_are_not_completed(self):
        store = RunStore()
        store.record(_entry("bad", status="error", objectives=None,
                            error="boom"))
        store.record(_entry("good"))
        completed = store.completed(TIER_ILP)
        assert set(completed) == {"good"}

    def test_solve_key_and_optimal_roundtrip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        RunStore(path).record(_entry("abc", solve_key="k1", optimal=True))
        entry = RunStore(path).get("abc")
        assert (entry.solve_key, entry.optimal) == ("k1", True)

    def test_entry_without_the_new_fields_loads(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        payload = _entry("abc").to_json()
        del payload["solve_key"], payload["optimal"]
        path.write_text(json.dumps(payload) + "\n")
        entry = RunStore(path).get("abc")
        assert entry is not None and entry.solve_key is None
        assert not entry.optimal

    def test_only_ok_optimal_keyed_entries_are_solved(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.record(_entry("feasible", solve_key="k1", optimal=False))
        store.record(_entry("failed", solve_key="k2", optimal=True,
                            status="error", objectives=None, error="boom"))
        store.record(_entry("keyless", optimal=True))
        store.record(_entry("proven", solve_key="k3", optimal=True))
        for view in (store, RunStore(path)):
            assert view.solved("k1") is None
            assert view.solved("k2") is None
            assert view.solved("k3").fingerprint == "proven"

    def test_reload_indexes_a_siblings_solve(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        reader = RunStore(path)
        RunStore(path).record(_entry("proven", solve_key="k", optimal=True))
        assert reader.solved("k") is None
        reader.reload()
        assert reader.solved("k").fingerprint == "proven"

    def test_memory_store_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = RunStore()
        store.record(_entry("abc"))
        assert list(tmp_path.iterdir()) == []
