"""The area stage's fixed-area route polish (``polish_routes``)."""

import pytest

from repro.mapping import pipeline as pipeline_module
from repro.mapping.greedy import greedy_first_fit
from repro.mapping.local_search import polish_routes
from repro.mapping.options import PrecisionSpec
from repro.mapping.pipeline import MappingPipeline
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping
from repro.mca.architecture import custom_architecture, heterogeneous_architecture
from repro.mca.crossbar import CrossbarType
from repro.snn.generators import random_network
from repro.snn.network import Network


@pytest.fixture
def het_problem():
    net = random_network(24, 48, seed=17, max_fan_in=6)
    arch = heterogeneous_architecture(
        24,
        types=[CrossbarType(4, 4), CrossbarType(8, 4), CrossbarType(8, 8),
               CrossbarType(16, 8)],
        max_slots_per_type=10,
    )
    return MappingProblem(net, arch)


@pytest.fixture
def small_problem():
    """Small enough that its area stage is proven optimal in well under 1 s."""
    net = random_network(14, 28, seed=12, max_fan_in=6)
    arch = heterogeneous_architecture(
        14,
        types=[CrossbarType(4, 4), CrossbarType(8, 4), CrossbarType(8, 8)],
        max_slots_per_type=6,
    )
    return MappingProblem(net, arch)


@pytest.fixture
def tie_problem():
    """Two chains 0->1 and 2->3 on two 2x2 crossbars: every valid mapping
    enables both, so all have area 8, but only chain-per-crossbar has no
    global route."""
    net = Network("tie")
    for _ in range(4):
        net.add_neuron()
    net.add_synapse(0, 1)
    net.add_synapse(2, 3)
    return MappingProblem(net, custom_architecture([(CrossbarType(2, 2), 2)]))


def _crossed(problem):
    """The area-optimal tie that routes both chains across crossbars."""
    return Mapping(problem, {0: 0, 2: 0, 1: 1, 3: 1})


class TestPolishRoutes:
    def test_breaks_an_equal_area_tie_toward_fewer_routes(self, tie_problem):
        crossed = _crossed(tie_problem)
        assert crossed.is_valid() and crossed.global_routes() == 2
        polished = polish_routes(crossed)
        assert polished.is_valid()
        assert polished.area() == crossed.area()
        assert polished.global_routes() == 0

    def test_valid_and_never_more_area_or_routes(self, het_problem):
        seed = greedy_first_fit(het_problem)
        polished = polish_routes(seed)
        assert polished.is_valid()
        assert polished.area() <= seed.area()
        assert (polished.area(), polished.global_routes()) <= (
            seed.area(),
            seed.global_routes(),
        )

    def test_deterministic(self, het_problem):
        seed = greedy_first_fit(het_problem)
        assert polish_routes(seed).assignment == polish_routes(seed).assignment


class TestPipelinePolish:
    def test_area_last_pipeline_polishes_the_solver_answer(self, tie_problem):
        result = MappingPipeline(tie_problem, area_time_limit=5).run(
            ("area",), initial=_crossed(tie_problem)
        )
        area = result.stages["area"]
        assert area.mapping.is_valid()
        assert area.mapping.area() == pytest.approx(8.0)
        assert area.mapping.global_routes() == 0

    def test_polish_is_a_traced_phase(self, small_problem):
        result = MappingPipeline(small_problem, area_time_limit=5).run(("area",))
        phases = result.stages["area"].solve_result.phases
        names = [name for name, _ in phases]
        assert names[0] == "build" and names[-1] == "polish"
        assert all(seconds >= 0.0 for _, seconds in phases)

    def test_never_raises_the_solver_area(self, small_problem, monkeypatch):
        solved = []
        polish = pipeline_module.polish_routes

        def recording(mapping):
            solved.append(mapping)
            return polish(mapping)

        monkeypatch.setattr(pipeline_module, "polish_routes", recording)
        result = MappingPipeline(small_problem, area_time_limit=5).run(("area",))
        (before,) = solved
        after = result.stages["area"].mapping
        assert after.is_valid()
        assert after.area() <= before.area()
        assert (after.area(), after.global_routes()) <= (
            before.area(),
            before.global_routes(),
        )

    @pytest.mark.parametrize(
        "stages, precision",
        [
            (("area", "snu"), None),
            (("area",), PrecisionSpec(weight_bits=4, cell_bits=2)),
        ],
    )
    def test_skipped_when_snu_follows_or_under_precision(
        self, small_problem, monkeypatch, stages, precision
    ):
        def forbidden(mapping):
            raise AssertionError("polish ran")

        monkeypatch.setattr(pipeline_module, "polish_routes", forbidden)
        pipeline = MappingPipeline(
            small_problem,
            area_time_limit=5,
            route_time_limit=5,
            precision=precision,
        )
        result = pipeline.run(stages)
        phases = [name for name, _ in result.stages["area"].solve_result.phases]
        assert "polish" not in phases
