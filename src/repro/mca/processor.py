"""Multi-crossbar neuromorphic processor model.

Executes a *mapped* network: the functional behaviour comes from the plain
SNN simulator (placement never changes spike semantics), while this module
accounts for the communication the placement induces, using exactly the
packet rule the paper's PGO assumes (§IV-D):

    "the architecture sends only one network packet per crossbar target
    per neuron fire ... if neuron X targets both neurons Y and Z within
    crossbar j, only one packet should be generated per spike of X."

A packet whose source neuron lives in the target crossbar is *local* (it
never enters the chip router network); every other packet is *global*.

Packet accounting is precompiled: :class:`TrafficCounter` flattens the
(source neuron, target crossbar) pairs a placement induces into arrays
once, so every subsequent spike profile is weighted with a handful of
NumPy gathers instead of a nested Python loop — the shape repeated
per-sample evaluation (Fig. 9 error bands) actually has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..snn.network import Network
from ..snn.simulator import SimulationResult, Simulator
from .architecture import Architecture
from .noc import MeshNoC, hop_weighted_packets


@dataclass(frozen=True)
class TrafficReport:
    """Communication accounting for one simulated run."""

    total_spikes: int
    local_packets: int
    global_packets: int
    hop_packets: int  # global packets weighted by mesh hop distance
    max_link_load: int
    per_crossbar_packets: dict[int, int]  # destination crossbar -> packets

    @property
    def total_packets(self) -> int:
        return self.local_packets + self.global_packets


def target_crossbars(
    network: Network, assignment: Mapping[int, int]
) -> dict[int, set[int]]:
    """For each neuron, the set of crossbars hosting at least one successor.

    This is the runtime realization of the ILP's ``s[k, j]`` column for
    source ``k``: crossbar ``j`` receives ``k`` as an axonal input iff some
    successor of ``k`` is placed on ``j``.
    """
    targets: dict[int, set[int]] = {}
    for nid in network.neuron_ids():
        targets[nid] = {assignment[succ] for succ in network.successors(nid)}
    return targets


class TrafficCounter:
    """Per-(source, target-crossbar) packet pairs, flattened to arrays.

    Build once per (network, placement); :meth:`count` then weights any
    spike profile in O(sources) dict lookups plus O(pairs) vector math.
    This is the one implementation of the packet rule:
    :meth:`repro.mapping.solution.Mapping.packet_count` counts with it too.
    """

    def __init__(self, network: Network, assignment: Mapping[int, int]) -> None:
        targets = target_crossbars(network, assignment)
        self.sources: tuple[int, ...] = tuple(
            nid for nid in network.neuron_ids() if targets[nid]
        )
        src_index = {nid: idx for idx, nid in enumerate(self.sources)}
        pair_src: list[int] = []
        pair_local: list[bool] = []
        pair_keys: list[tuple[int, int]] = []
        for nid in self.sources:
            home = assignment[nid]
            for dst in sorted(targets[nid]):
                pair_src.append(src_index[nid])
                local = dst == home
                pair_local.append(local)
                pair_keys.append((-1, -1) if local else (home, dst))
        self._pair_src = np.asarray(pair_src, dtype=np.int64)
        local_mask = np.asarray(pair_local, dtype=bool)
        self._src_local = self._pair_src[local_mask]
        self._src_global = self._pair_src[~local_mask]
        global_keys = [key for key in pair_keys if key != (-1, -1)]
        self.pairs: tuple[tuple[int, int], ...] = tuple(
            sorted(set(global_keys))
        )
        pair_pos = {key: pos for pos, key in enumerate(self.pairs)}
        self._global_pair_pos = np.asarray(
            [pair_pos[key] for key in global_keys], dtype=np.int64
        )

    def count(
        self, spike_counts: Mapping[int, int]
    ) -> tuple[int, int, dict[tuple[int, int], int]]:
        """(local, global, per-(src_tile, dst_tile)) packets for a profile."""
        if not self.sources:
            return 0, 0, {}
        fires = np.fromiter(
            (spike_counts.get(k, 0) for k in self.sources),
            dtype=np.int64,
            count=len(self.sources),
        )
        local = int(fires[self._src_local].sum())
        global_fires = fires[self._src_global]
        global_ = int(global_fires.sum())
        sums = np.zeros(len(self.pairs), dtype=np.int64)
        np.add.at(sums, self._global_pair_pos, global_fires)
        pair_counts = {
            pair: int(total)
            for pair, total in zip(self.pairs, sums.tolist())
            if total
        }
        return local, global_, pair_counts


def count_packets(
    network: Network,
    assignment: Mapping[int, int],
    spike_counts: Mapping[int, int],
) -> tuple[int, int, dict[tuple[int, int], int]]:
    """Aggregate (local, global, per-pair) packet counts from spike counts.

    Every spike of neuron ``k`` generates one packet per distinct target
    crossbar; the packet to ``k``'s own crossbar (if any) is local.  For
    repeated profiles over one placement, build a :class:`TrafficCounter`
    once instead.
    """
    return TrafficCounter(network, assignment).count(spike_counts)


def static_traffic(
    network: Network,
    assignment: Mapping[int, int],
    spike_counts: Mapping[int, int],
    noc: MeshNoC,
) -> TrafficReport:
    """Traffic report synthesized from a placement and a spike profile.

    The static sibling of :meth:`MappedProcessor.run`: instead of
    simulating, it expands per-neuron spike counts into packet counts over
    the placement (the same :class:`TrafficCounter` arithmetic the
    processor uses), then hop-weights the global packets over ``noc``.
    This is what sweep-scale consumers (the design-space explorer's energy
    objective) use — identical accounting, no simulator in the loop.

    ``noc`` is required: mesh geometry (and with it every hop count) is
    set by the architecture's *total* slot count, which a placement alone
    cannot reveal — pass ``MeshNoC(architecture.num_slots)`` to match
    :meth:`MappedProcessor.traffic_from_counts` exactly.
    """
    local, global_, pair_counts = TrafficCounter(network, assignment).count(
        spike_counts
    )
    return _assemble_report(
        noc, local, global_, pair_counts, sum(spike_counts.values())
    )


def _assemble_report(
    noc: MeshNoC,
    local: int,
    global_: int,
    pair_counts: dict[tuple[int, int], int],
    total_spikes: int,
) -> TrafficReport:
    """Hop-weight pair counts over the mesh and fold into one report."""
    hop_packets, link_load = hop_weighted_packets(noc, pair_counts)
    per_crossbar: dict[int, int] = {}
    for (_, dst), packets in pair_counts.items():
        per_crossbar[dst] = per_crossbar.get(dst, 0) + packets
    return TrafficReport(
        total_spikes=total_spikes,
        local_packets=local,
        global_packets=global_,
        hop_packets=hop_packets,
        max_link_load=link_load.max_link_load,
        per_crossbar_packets=per_crossbar,
    )


class MappedProcessor:
    """A network placed onto an architecture, ready to execute.

    The network runs on the :class:`~repro.snn.simulator.Simulator`
    (the vector kernel); the placement only decides the traffic.
    """

    def __init__(
        self,
        network: Network,
        assignment: Mapping[int, int],
        architecture: Architecture,
    ) -> None:
        missing = set(network.neuron_ids()) - set(assignment)
        if missing:
            raise ValueError(f"assignment missing neurons {sorted(missing)[:5]}")
        bad = {j for j in assignment.values() if not 0 <= j < architecture.num_slots}
        if bad:
            raise ValueError(f"assignment targets unknown crossbars {sorted(bad)}")
        self.network = network
        self.assignment = dict(assignment)
        self.architecture = architecture
        self.noc = MeshNoC(architecture.num_slots)
        self._simulator = Simulator(network)
        self._traffic = TrafficCounter(network, self.assignment)

    def run(
        self,
        duration: int,
        input_spikes: Mapping[int, list[int]] | None = None,
    ) -> tuple[SimulationResult, TrafficReport]:
        """Simulate and account for the induced crossbar traffic."""
        sim_result = self._simulator.run(duration, input_spikes=input_spikes)
        report = self.traffic_from_counts(sim_result.spike_counts)
        return sim_result, report

    def traffic_from_counts(self, spike_counts: Mapping[int, int]) -> TrafficReport:
        """Traffic report for externally supplied per-neuron spike counts."""
        local, global_, pair_counts = self._traffic.count(spike_counts)
        return _assemble_report(
            self.noc, local, global_, pair_counts, sum(spike_counts.values())
        )
