"""``critical_path_latency`` is exact against a networkx oracle.

The DSE latency objective, and so every workload's hypervolume, is this
integer.  The oracle below is the networkx formulation the function
used to be: condense the strongly connected components, weight each
condensed edge by its largest effective delay, take the longest path.
The property test draws digraphs with cycles, self-loops, isolated
neurons and several components, with random delays and placements.
"""

from __future__ import annotations

import time

import networkx as nx
from hypothesis import given, settings, strategies as st

from repro.dse.scenario import ArchitectureSpec, ScenarioRegistry, default_space
from repro.mapping.greedy import greedy_first_fit
from repro.mapping.latency import critical_path_latency, effective_delays
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping
from repro.mca.architecture import custom_architecture
from repro.mca.crossbar import CrossbarType
from repro.snn.analysis import strongly_connected_components
from repro.snn.network import Network


def networkx_critical_path(mapping: Mapping, cycles_per_hop: int = 1) -> int:
    delays = effective_delays(mapping, cycles_per_hop=cycles_per_hop)
    condensed = nx.condensation(mapping.problem.network.to_networkx())
    component_of = condensed.graph["mapping"]
    weighted = nx.DiGraph()
    weighted.add_nodes_from(condensed.nodes)
    for (pre, post), delay in delays.items():
        a, b = component_of[pre], component_of[post]
        if a == b:
            continue
        prev = weighted.edges.get((a, b), {}).get("weight", 0)
        if delay > prev:
            weighted.add_edge(a, b, weight=delay)
    if weighted.number_of_edges() == 0:
        return 0
    return int(nx.dag_longest_path_length(weighted, weight="weight"))


@st.composite
def mapped_digraph(draw):
    n = draw(st.integers(1, 24))
    network = Network("random")
    for i in range(n):
        network.add_neuron(i)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
            unique=True,
        )
    )
    # Planted rings guarantee several multi-neuron components.
    for _ in range(draw(st.integers(0, 3))):
        ring = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=5))
        pairs += list(zip(ring, ring[1:] + ring[:1]))
    for pre, post in dict.fromkeys(pairs):
        network.add_synapse(pre, post, delay=draw(st.integers(1, 6)))
    slots = draw(st.integers(1, 9))
    arch = custom_architecture([(CrossbarType(n, n), slots)])
    placement = {i: draw(st.integers(0, slots - 1)) for i in range(n)}
    hop = draw(st.integers(0, 3))
    return Mapping(MappingProblem(network, arch), placement), hop


class TestCriticalPathExactness:
    @settings(max_examples=300, deadline=None)
    @given(mapped_digraph())
    def test_matches_the_networkx_oracle(self, instance):
        mapping, hop = instance
        assert critical_path_latency(
            mapping, cycles_per_hop=hop
        ) == networkx_critical_path(mapping, cycles_per_hop=hop)

    @settings(max_examples=200, deadline=None)
    @given(mapped_digraph())
    def test_components_partition_in_reverse_topological_order(self, instance):
        network = instance[0].problem.network
        components = strongly_connected_components(network)
        expected = {
            frozenset(c)
            for c in nx.strongly_connected_components(network.to_networkx())
        }
        assert {frozenset(c) for c in components} == expected
        position = {n: k for k, members in enumerate(components) for n in members}
        for syn in network.synapses():
            assert position[syn.pre] >= position[syn.post]

    def test_deep_chain_needs_no_recursion(self):
        n = 5000
        network = Network("chain")
        for i in range(n):
            network.add_neuron(i)
        for i in range(n - 1):
            network.add_synapse(i, i + 1)
        network.add_synapse(n - 1, n // 2)  # one long loop at the tail
        arch = custom_architecture([(CrossbarType(4, n), 1)])
        mapping = Mapping(MappingProblem(network, arch), dict.fromkeys(range(n), 0))
        assert critical_path_latency(mapping) == n // 2


def _best_of(function, mapping, repeats: int = 5, calls: int = 50) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            function(mapping)
        best = min(best, time.perf_counter() - start)
    return best


def test_no_slower_than_networkx_on_the_largest_sweep_twin():
    registry = ScenarioRegistry()
    largest = max(
        (registry.network(workload) for workload in default_space().workloads),
        key=lambda net: (net.num_synapses, net.num_neurons),
    )
    mapping = greedy_first_fit(
        MappingProblem(largest, ArchitectureSpec(kind="heterogeneous").build(largest))
    )
    assert critical_path_latency(mapping) == networkx_critical_path(mapping)
    ours = _best_of(critical_path_latency, mapping)
    oracle = _best_of(networkx_critical_path, mapping)
    assert ours <= oracle, (ours, oracle)
