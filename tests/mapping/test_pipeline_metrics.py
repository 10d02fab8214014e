"""Tests for the staged pipeline and metric records."""

import pytest

from repro.mapping import pipeline as pipeline_module
from repro.mapping.metrics import evaluate_mapping, improvement_pct
from repro.mapping.pgo import SpikeProfile
from repro.mapping.pipeline import MappingPipeline
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping
from repro.mca.architecture import heterogeneous_architecture
from repro.mca.crossbar import CrossbarType
from repro.snn.generators import random_network


@pytest.fixture
def problem():
    net = random_network(14, 28, seed=12, max_fan_in=6)
    arch = heterogeneous_architecture(
        14,
        types=[CrossbarType(4, 4), CrossbarType(8, 4), CrossbarType(8, 8)],
        max_slots_per_type=6,
    )
    return MappingProblem(net, arch)


@pytest.fixture
def profile(problem):
    return SpikeProfile(
        counts={k: (k * 3) % 7 for k in problem.network.neuron_ids()}
    )


class TestImprovementPct:
    def test_reduction_positive(self):
        assert improvement_pct(100, 80) == pytest.approx(20.0)

    def test_regression_negative(self):
        assert improvement_pct(100, 120) == pytest.approx(-20.0)

    def test_zero_baseline_zero_improved(self):
        assert improvement_pct(0, 0) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroDivisionError):
            improvement_pct(0, 5)


class TestEvaluateMapping:
    def test_without_profile(self, problem):
        from repro.mapping.greedy import greedy_first_fit

        metrics = evaluate_mapping(greedy_first_fit(problem))
        assert metrics.global_packets is None
        assert metrics.total_packets is None
        assert metrics.total_routes == metrics.local_routes + metrics.global_routes

    def test_with_profile(self, problem, profile):
        from repro.mapping.greedy import greedy_first_fit

        metrics = evaluate_mapping(greedy_first_fit(problem), profile.counts)
        assert metrics.global_packets is not None
        assert metrics.total_packets == metrics.local_packets + metrics.global_packets


class TestPipeline:
    def test_full_pipeline_monotone_improvements(self, problem, profile):
        pipeline = MappingPipeline(problem, area_time_limit=8, route_time_limit=5)
        result = pipeline.run(("area", "snu", "pgo"), profile=profile)
        assert list(result.stages) == ["area", "snu", "pgo"]
        area = result.stages["area"]
        snu = result.stages["snu"]
        pgo = result.stages["pgo"]
        # SNU/PGO freeze the area budget.
        assert snu.metrics.area <= area.metrics.area + 1e-9
        assert pgo.metrics.area <= area.metrics.area + 1e-9
        # SNU cannot have more global routes than the area solution.
        assert snu.metrics.global_routes <= area.metrics.global_routes
        # PGO cannot have more expected packets than its SNU warm start.
        assert pgo.metrics.global_packets <= snu.metrics.global_packets
        assert result.total_det_time() > 0
        assert result.final() is pgo

    def test_area_only(self, problem):
        pipeline = MappingPipeline(problem, area_time_limit=5)
        result = pipeline.run(("area",))
        assert list(result.stages) == ["area"]
        assert result.stages["area"].mapping.is_valid()

    def test_pgo_requires_profile(self, problem):
        pipeline = MappingPipeline(problem)
        with pytest.raises(ValueError, match="profile"):
            pipeline.run(("area", "pgo"))

    def test_unknown_stage_rejected(self, problem):
        with pytest.raises(ValueError, match="unknown stages"):
            MappingPipeline(problem).run(("area", "warp"))

    def test_empty_stage_tuple_returns_greedy(self, problem):
        result = MappingPipeline(problem).run(())
        assert list(result.stages) == ["greedy"]
        assert result.final().mapping.is_valid()

    def test_accepts_raw_profile_dict(self, problem, profile):
        pipeline = MappingPipeline(problem, area_time_limit=5, route_time_limit=3)
        result = pipeline.run(("area", "pgo"), profile=dict(profile.counts))
        assert "pgo" in result.stages


def _one_more_crossbar(mapping: Mapping) -> Mapping:
    """``mapping`` with one neuron moved from a shared slot to a free one."""
    slots = list(mapping.assignment.values())
    shared = next(j for j in slots if slots.count(j) > 1)
    neuron = next(i for i, j in mapping.assignment.items() if j == shared)
    free = next(
        s.index
        for s in mapping.problem.architecture.slots
        if s.index not in slots
    )
    return Mapping(mapping.problem, {**mapping.assignment, neuron: free})


class _GrowingHandle:
    """A route-model handle whose extracted mapping costs more area."""

    def __init__(self, handle):
        self._handle = handle

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def extract_mapping(self, solve):
        return _one_more_crossbar(self._handle.extract_mapping(solve))


@pytest.mark.parametrize(
    "stage, builder", [("snu", "build_snu_model"), ("pgo", "build_pgo_model")]
)
def test_route_stage_that_raises_area_is_an_error(
    problem, profile, monkeypatch, stage, builder
):
    # An explicit check, not an ``assert``: ``python -O`` must not let a
    # larger-area route mapping through.
    build = getattr(pipeline_module, builder)
    monkeypatch.setattr(
        pipeline_module,
        builder,
        lambda *args, **kwargs: _GrowingHandle(build(*args, **kwargs)),
    )
    pipeline = MappingPipeline(problem, route_time_limit=3)
    with pytest.raises(RuntimeError, match=f"{stage} stage raised the area"):
        pipeline.run((stage,), profile=profile)
