"""Structural analyses of spiking networks.

Beyond the Table-I attributes (:mod:`repro.snn.stats`), the mapping
heuristics and the experiment reports use deeper structure: component
decomposition (SpikeHard's MCC granularity bound), recurrence (which
breaks feed-forward scheduling assumptions), depth (worst-case inference
latency in timesteps), and degree histograms (the raw material of the
Gini indices).
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import Network


@dataclass(frozen=True)
class StructureReport:
    """One-shot structural summary of a network."""

    num_components: int
    largest_component: int
    is_recurrent: bool
    num_feedback_synapses: int
    depth: int  # longest path in the acyclic condensation, in synapses
    isolated_neurons: int

    def as_rows(self) -> list[tuple[str, float]]:
        return [
            ("weakly connected components", self.num_components),
            ("largest component size", self.largest_component),
            ("recurrent", int(self.is_recurrent)),
            ("feedback synapses", self.num_feedback_synapses),
            ("depth (synapses)", self.depth),
            ("isolated neurons", self.isolated_neurons),
        ]


def weakly_connected_components(network: Network) -> list[set[int]]:
    """Component decomposition, largest first (deterministic tiebreak)."""
    import networkx as nx

    graph = network.to_networkx()
    comps = [set(c) for c in nx.weakly_connected_components(graph)]
    return sorted(comps, key=lambda c: (-len(c), min(c)))


def feedback_synapses(network: Network) -> list[tuple[int, int]]:
    """A minimal-ish set of synapses whose removal makes the net acyclic.

    Computed by DFS back-edge detection; deterministic (sorted adjacency).
    """
    color: dict[int, int] = {}
    back: list[tuple[int, int]] = []

    def dfs(root: int) -> None:
        stack: list[tuple[int, iter]] = [(root, iter(sorted(network.successors(root))))]
        color[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                state = color.get(nxt, 0)
                if state == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(sorted(network.successors(nxt)))))
                    advanced = True
                    break
                if state == 1:
                    back.append((node, nxt))
            if not advanced:
                color[node] = 2
                stack.pop()

    for nid in network.neuron_ids():
        if color.get(nid, 0) == 0:
            dfs(nid)
    return back


def strongly_connected_components(network: Network) -> list[list[int]]:
    """Strongly connected components in reverse topological order.

    Iterative Tarjan, so deep chains cannot overflow the interpreter
    stack.  A component is listed only after every component it reaches,
    so one pass in list order visits each component after all of its
    successors in the condensation.  Every neuron, isolated or not, is in
    exactly one component.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []
    for root in network.neuron_ids():
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(network.successors(root)))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(network.successors(succ))))
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def network_depth(network: Network) -> int:
    """Longest path (in synapses) through the acyclic condensation.

    For recurrent networks, strongly connected components are contracted
    first, so the depth reflects the feed-forward backbone.
    """
    import networkx as nx

    graph = network.to_networkx()
    condensed = nx.condensation(graph)
    if condensed.number_of_nodes() == 0:
        return 0
    return int(nx.dag_longest_path_length(condensed))


def structure_report(network: Network) -> StructureReport:
    """Compute the full structural summary."""
    comps = weakly_connected_components(network)
    feedback = feedback_synapses(network)
    isolated = sum(
        1
        for nid in network.neuron_ids()
        if network.fan_in(nid) == 0 and network.fan_out(nid) == 0
    )
    return StructureReport(
        num_components=len(comps),
        largest_component=len(comps[0]) if comps else 0,
        is_recurrent=bool(feedback),
        num_feedback_synapses=len(feedback),
        depth=network_depth(network),
        isolated_neurons=isolated,
    )


def degree_histogram(network: Network, direction: str = "in") -> dict[int, int]:
    """degree -> neuron count (the distribution behind the Gini index)."""
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    fan = network.fan_in if direction == "in" else network.fan_out
    hist: dict[int, int] = {}
    for nid in network.neuron_ids():
        d = fan(nid)
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
