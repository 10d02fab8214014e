"""Delta-evaluated objectives must equal full re-evaluation, move by move.

The DeltaEvaluator underpins every move-engine decision of the route
polish; any drift between its incremental ``(area, global routes)`` and a
from-scratch :class:`Mapping` evaluation silently corrupts the search.  Every evaluator test here
checks the equality after *each* individual move.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mapping.delta import DeltaEvaluator
from repro.mapping.greedy import greedy_first_fit
from repro.mapping.local_search import MoveEngine
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping
from repro.mca.architecture import (
    heterogeneous_architecture,
    homogeneous_architecture,
)
from repro.mca.crossbar import CrossbarType
from repro.snn.generators import random_network


def _random_problem(seed: int, heterogeneous: bool = False) -> MappingProblem:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 16))
    m = int(rng.integers(n, 2 * n + 1))
    net = random_network(n, m, seed=seed, max_fan_in=5)
    if heterogeneous:
        # Non-integral overheads make the area's summation order matter.
        arch = heterogeneous_architecture(
            n,
            types=[
                CrossbarType(4, 4, overhead=1.1),
                CrossbarType(8, 4, overhead=0.7),
                CrossbarType(8, 8, overhead=1.3),
            ],
            slack=2.0,
        )
    else:
        arch = homogeneous_architecture(n, dimension=8, slack=2.0)
    return MappingProblem(net, arch)


class TestDeltaVsFull:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 400), heterogeneous=st.booleans())
    def test_random_move_sequences(self, seed, heterogeneous):
        problem = _random_problem(seed, heterogeneous)
        rng = np.random.default_rng(seed + 1)
        # Placements crowded onto the first few slots hit full slots too.
        slots = int(rng.integers(2, problem.num_slots + 1))
        assignment = {
            i: int(rng.integers(slots)) for i in problem.network.neuron_ids()
        }
        evaluator = DeltaEvaluator(problem, assignment)
        neurons = problem.network.neuron_ids()
        for _ in range(40):
            neuron = int(rng.choice(neurons))
            dst = int(rng.integers(slots))
            src = evaluator.slot_of(neuron)
            # A probe elsewhere first, so the probe below reuses the
            # neuron's cached source-side terms.
            evaluator.probe(neuron, int(rng.integers(slots)))
            probed = evaluator.probe(neuron, dst)
            evaluator.move(neuron, dst)
            # The read-only probe predicted exactly the post-move state.
            assert probed == (
                evaluator.slot_feasible(src) and evaluator.slot_feasible(dst),
                evaluator.area(),
                evaluator.global_routes(),
            )
            # Full re-derivation after *every* move.
            evaluator.assert_consistent()
        rebuilt = evaluator.to_mapping()
        assert evaluator.area() == rebuilt.area()
        assert evaluator.global_routes() == rebuilt.global_routes()

    def test_move_returns_previous_slot_and_undo_restores(self):
        problem = _random_problem(3)
        base = greedy_first_fit(problem)
        evaluator = DeltaEvaluator.from_mapping(base)
        before = evaluator.score()
        neuron = problem.network.neuron_ids()[0]
        src = evaluator.move(neuron, (base.assignment[neuron] + 1) % problem.num_slots)
        assert src == base.assignment[neuron]
        evaluator.move(neuron, src)
        assert evaluator.score() == before
        assert evaluator.assignment() == base.assignment

    def test_noop_move_is_free(self):
        problem = _random_problem(4)
        evaluator = DeltaEvaluator.from_mapping(greedy_first_fit(problem))
        neuron = problem.network.neuron_ids()[0]
        before = evaluator.score()
        assert evaluator.move(neuron, evaluator.slot_of(neuron)) == evaluator.slot_of(neuron)
        assert evaluator.score() == before

    def test_feasibility_matches_mapping_validate(self):
        problem = _random_problem(5)
        rng = np.random.default_rng(9)
        # Cram everything into few slots to force violations.
        assignment = {
            i: int(rng.integers(2)) for i in problem.network.neuron_ids()
        }
        evaluator = DeltaEvaluator(problem, assignment)
        mapping = Mapping(problem, assignment)
        bad_slots = {
            int(msg.split()[1]) for msg in mapping.validate()
        }
        for j in evaluator.occupied_slots():
            assert evaluator.slot_feasible(j) == (j not in bad_slots)

    def test_self_loop_locality(self):
        """A neuron feeding itself: the route is local wherever it lives."""
        from repro.snn.network import Network
        from repro.mca.architecture import custom_architecture

        net = Network("loop")
        net.add_neuron(0)
        net.add_neuron(1)
        net.add_synapse(0, 0)
        net.add_synapse(0, 1)
        arch = custom_architecture([(CrossbarType(4, 4), 3)])
        problem = MappingProblem(net, arch)
        evaluator = DeltaEvaluator(problem, {0: 0, 1: 0}, verify=True)
        for neuron, dst in ((0, 1), (1, 2), (0, 2), (0, 0)):
            probed = evaluator.probe(neuron, dst)
            evaluator.move(neuron, dst)
            assert probed == (True, evaluator.area(), evaluator.global_routes())
        assert evaluator.to_mapping().is_valid()


class TestSearchConsultsDeltas:
    """The move engine on a ``verify=True`` evaluator: every move —
    descent and ruin-and-recreate trials alike — is re-derived from
    scratch and asserted equal inside ``move``."""

    def test_local_search_verified_move_by_move(self):
        net = random_network(20, 40, seed=21, max_fan_in=6)
        arch = heterogeneous_architecture(
            20,
            types=[CrossbarType(4, 4), CrossbarType(8, 4), CrossbarType(8, 8)],
            max_slots_per_type=8,
        )
        problem = MappingProblem(net, arch)
        initial = greedy_first_fit(problem)
        ev = DeltaEvaluator.from_mapping(initial, verify=True)
        engine = MoveEngine(range(problem.num_slots))
        neurons = problem.network.neuron_ids()
        engine.improve(ev, neurons, max_rounds=3)
        best = engine.ruin_recreate(ev, neurons, random.Random(0), max_trials=3)
        result = Mapping(problem, best)
        assert result.is_valid()
        assert (result.area(), result.global_routes()) <= (
            initial.area(),
            initial.global_routes(),
        )

    def test_local_search_same_result_with_and_without_verification(self):
        net = random_network(16, 32, seed=8, max_fan_in=5)
        problem = MappingProblem(
            net, homogeneous_architecture(16, dimension=8, slack=2.0)
        )
        initial = greedy_first_fit(problem)

        def engine_run(verify: bool) -> dict[int, int]:
            ev = DeltaEvaluator.from_mapping(initial, verify=verify)
            engine = MoveEngine(range(problem.num_slots))
            neurons = problem.network.neuron_ids()
            engine.improve(ev, neurons)
            return engine.ruin_recreate(ev, neurons, random.Random(2), max_trials=4)

        checked = engine_run(verify=True)
        assert Mapping(problem, checked).is_valid()
        assert engine_run(verify=False) == checked
