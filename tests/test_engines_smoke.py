"""One tiny sweep end-to-end on the vector simulation kernel.

Covers the full per-instance path the exhibits exercise — profile a
network with the simulator, map it, weight the mapping with the profile,
execute it on the processor model and price the result — and checks the
run against the scalar reference loop, so a regression anywhere on that
path fails fast in the tier-1 run.
"""

import pytest

from repro.mapping.greedy import greedy_first_fit
from repro.mapping.metrics import evaluate_mapping
from repro.mapping.problem import MappingProblem
from repro.mca.architecture import heterogeneous_architecture
from repro.mca.energy import cost_summary
from repro.mca.processor import MappedProcessor
from repro.snn.generators import random_network
from repro.snn.simulator import reference_run, spike_profile

pytestmark = pytest.mark.engines

DURATION = 24


def test_tiny_sweep_end_to_end_vector_engine():
    net = random_network(16, 32, seed=9, max_fan_in=6, name="smoke")

    # Profile: W[i] over a few input programs.
    samples = [
        {nid: list(range(offset, DURATION, 5)) for nid in (0, 3, 7)}
        for offset in (0, 1, 2)
    ]
    profile = spike_profile(net, samples, DURATION)
    assert set(profile) == set(net.neuron_ids())
    assert sum(profile.values()) > 0

    # Map: greedy first-fit.
    problem = MappingProblem(net, heterogeneous_architecture(16))
    mapping = greedy_first_fit(problem)
    assert mapping.is_valid()
    metrics = evaluate_mapping(mapping, spike_counts=profile)
    assert metrics.total_packets is not None
    assert metrics.total_packets >= 0

    # Execute on the processor model and price.
    proc = MappedProcessor(net, mapping.assignment, problem.architecture)
    sim_result, traffic = proc.run(DURATION, input_spikes=samples[0])
    assert sim_result.total_spikes > 0
    assert traffic.total_packets >= traffic.global_packets
    summary = cost_summary(
        problem.architecture, mapping.assignment, traffic, DURATION
    )
    assert summary.total_energy_pj > 0
    assert summary.area_memristors == pytest.approx(mapping.area())

    # The reference loop agrees on the same sweep (spot check).
    ref = reference_run(net, DURATION, input_spikes=samples[0])
    assert ref.spikes == sim_result.spikes
    assert mapping.packet_count(ref.spike_counts) == (
        traffic.local_packets,
        traffic.global_packets,
    )
