"""Mapping-aware latency analysis.

Synaptic delays are logical timesteps, but a *mapped* network also pays
router latency: a spike crossing from crossbar ``j`` to ``j'`` traverses
``hops(j, j')`` mesh links.  This module quantifies that cost:

- :func:`effective_delays` — per-synapse delay including NoC transit
  (local synapses are unchanged);
- :func:`annotate_latency` — a copy of the network with those delays
  baked in, so the ordinary simulator executes the *timed* mapped system;
- :func:`critical_path_latency` — static worst-case input-to-output
  latency (longest path through the acyclic condensation, weighted by
  effective delays);
- :func:`latency_report` — one-line comparison of logical vs. mapped
  latency for a mapping.

This gives the reproduction a metric the paper leaves implicit: SNU/PGO
reduce *how many* packets cross the chip; this measures how much *later*
spikes arrive because of where neurons were placed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..mca.noc import MeshNoC
from ..snn.analysis import strongly_connected_components
from ..snn.network import Network
from .solution import Mapping


def effective_delays(
    mapping: Mapping,
    noc: MeshNoC | None = None,
    cycles_per_hop: int = 1,
) -> dict[tuple[int, int], int]:
    """Per-synapse delay after adding router transit time.

    A synapse whose endpoints share a crossbar keeps its logical delay;
    a global synapse pays ``hops * cycles_per_hop`` extra timesteps.
    """
    if cycles_per_hop < 0:
        raise ValueError("cycles_per_hop must be non-negative")
    network = mapping.problem.network
    mesh = noc or MeshNoC(mapping.problem.num_slots)
    out: dict[tuple[int, int], int] = {}
    for syn in network.synapses():
        src = mapping.assignment[syn.pre]
        dst = mapping.assignment[syn.post]
        transit = 0 if src == dst else mesh.hops(src, dst) * cycles_per_hop
        out[(syn.pre, syn.post)] = syn.delay + transit
    return out


def annotate_latency(
    mapping: Mapping,
    noc: MeshNoC | None = None,
    cycles_per_hop: int = 1,
) -> Network:
    """Network copy with placement-induced delays baked into synapses."""
    delays = effective_delays(mapping, noc, cycles_per_hop)
    network = mapping.problem.network
    annotated = network.copy(f"{network.name}-timed")
    for syn in network.synapses():
        annotated.replace_synapse(
            replace(syn, delay=delays[(syn.pre, syn.post)])
        )
    return annotated


def critical_path_latency(
    mapping: Mapping,
    noc: MeshNoC | None = None,
    cycles_per_hop: int = 1,
) -> int:
    """Worst-case feed-forward latency in timesteps.

    Longest path through the strongly-connected-component condensation,
    edge-weighted by the *maximum* effective delay between the two
    components (recurrent loops are contracted; their internal latency is
    unbounded by definition and excluded, as in standard static timing).
    """
    delays = effective_delays(mapping, noc, cycles_per_hop)
    components = strongly_connected_components(mapping.problem.network)
    component_of = {
        neuron: c for c, members in enumerate(components) for neuron in members
    }
    edges: list[list[tuple[int, int]]] = [[] for _ in components]
    for (pre, post), delay in delays.items():
        a, b = component_of[pre], component_of[post]
        if a != b:
            edges[a].append((b, delay))
    # Components come successors-first, so each one's longest outgoing
    # path is final before any component that reaches it is visited.
    longest = [0] * len(components)
    for c, out in enumerate(edges):
        longest[c] = max((delay + longest[b] for b, delay in out), default=0)
    return max(longest, default=0)


@dataclass(frozen=True)
class LatencyReport:
    """Logical vs. mapped latency of one placement."""

    logical_critical_path: int  # delays only (ideal single-crossbar chip)
    mapped_critical_path: int  # delays + NoC transit
    worst_synapse_transit: int  # largest single-hop penalty added

    @property
    def slowdown(self) -> float:
        if self.logical_critical_path == 0:
            return 1.0
        return self.mapped_critical_path / self.logical_critical_path


def latency_report(
    mapping: Mapping,
    noc: MeshNoC | None = None,
    cycles_per_hop: int = 1,
) -> LatencyReport:
    """Compute the latency comparison for a mapping."""
    network = mapping.problem.network
    mesh = noc or MeshNoC(mapping.problem.num_slots)
    mapped = critical_path_latency(mapping, mesh, cycles_per_hop)
    delays = effective_delays(mapping, mesh, cycles_per_hop)
    worst_extra = 0
    for syn in network.synapses():
        extra = delays[(syn.pre, syn.post)] - syn.delay
        worst_extra = max(worst_extra, extra)
    # Logical latency = mapped latency with zero-cost routing.
    logical = critical_path_latency(mapping, mesh, cycles_per_hop=0)
    return LatencyReport(
        logical_critical_path=logical,
        mapped_critical_path=mapped,
        worst_synapse_transit=worst_extra,
    )
