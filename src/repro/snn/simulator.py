"""Discrete-time leaky-integrate-and-fire SNN simulator.

This is the simulation substrate the paper added to the TENNLab framework:
it executes a :class:`~repro.snn.network.Network` over discrete timesteps,
honouring synaptic delays, and records per-neuron spike counts — the
profile data ``W[i]`` consumed by the PGO formulation (§IV-D) and the spike
streams consumed by the multi-crossbar processor model
(:mod:`repro.mca.processor`).

Dynamics per timestep (TENNLab RISP-style):

1. membrane potentials decay by each neuron's ``leak`` factor,
2. charges scheduled for this timestep (delayed synaptic deliveries and
   external injections) are accumulated,
3. every neuron at or above threshold fires: the spike is recorded,
   outgoing charges are scheduled at ``t + delay``, and the potential
   resets to zero.

:class:`Simulator` runs these dynamics on the one engine, the NumPy
kernel of :mod:`repro.snn.engine`.  :func:`reference_run` keeps the
original dict-walking loop as the executable specification: it is the
oracle the equivalence suite and the simulator bench compare the kernel
against, and no product path calls it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping

import numpy as np

from .engine import CompiledNetwork, run_compiled
from .network import Network


class SimulationResult:
    """Outcome of one simulator run.

    ``spikes`` is the raster as ``(timestep, neuron_id)`` pairs in firing
    order; ``spike_counts`` aggregates them per neuron (every neuron id
    appears, silent neurons with count 0).

    The vector engine hands the raster over as arrays; the tuple list is
    materialized only when ``spikes`` is first accessed, and per-neuron
    queries go through a lazily built neuron -> firing-times index.  Do
    not mutate ``spikes`` after the first per-neuron query.
    """

    def __init__(
        self,
        duration: int,
        spikes: list[tuple[int, int]] | None = None,
        spike_counts: dict[int, int] | None = None,
        final_potentials: dict[int, float] | None = None,
    ) -> None:
        self.duration = duration
        self.spike_counts = spike_counts if spike_counts is not None else {}
        self.final_potentials = (
            final_potentials if final_potentials is not None else {}
        )
        self._spikes = spikes if spikes is not None else []
        self._raster: tuple[np.ndarray, np.ndarray] | None = None
        self._neuron_index: dict[int, list[int]] | None = None

    @classmethod
    def from_raster(
        cls,
        duration: int,
        times: np.ndarray,
        neuron_ids: np.ndarray,
        spike_counts: dict[int, int],
        final_potentials: dict[int, float],
    ) -> "SimulationResult":
        """Build from the vector engine's raw arrays (tuple list deferred)."""
        result = cls(
            duration,
            spike_counts=spike_counts,
            final_potentials=final_potentials,
        )
        result._raster = (times, neuron_ids)
        return result

    @property
    def spikes(self) -> list[tuple[int, int]]:
        if self._raster is not None:
            times, ids = self._raster
            self._spikes = list(zip(times.tolist(), ids.tolist()))
            self._raster = None
        return self._spikes

    def __repr__(self) -> str:
        return (
            f"SimulationResult(duration={self.duration}, "
            f"total_spikes={self.total_spikes})"
        )

    def __eq__(self, other: object) -> bool:
        """Value equality on the observable record (as the former
        dataclass had): duration, raster, counts, final potentials."""
        if not isinstance(other, SimulationResult):
            return NotImplemented
        return (
            self.duration == other.duration
            and self.spikes == other.spikes
            and self.spike_counts == other.spike_counts
            and self.final_potentials == other.final_potentials
        )

    @property
    def total_spikes(self) -> int:
        if self._raster is not None:
            return int(self._raster[0].size)
        return len(self._spikes)

    def _index(self) -> dict[int, list[int]]:
        if self._neuron_index is None:
            index: dict[int, list[int]] = {}
            if self._raster is not None:
                times, ids = self._raster
                for t, nid in zip(times.tolist(), ids.tolist()):
                    index.setdefault(nid, []).append(t)
            else:
                for t, nid in self._spikes:
                    index.setdefault(nid, []).append(t)
            self._neuron_index = index
        return self._neuron_index

    def spikes_of(self, neuron_id: int) -> list[int]:
        """Firing times of one neuron (O(1) after the first query)."""
        return list(self._index().get(neuron_id, ()))

    def spike_train(self, neuron_id: int) -> list[int]:
        """0/1 train of length ``duration`` for one neuron."""
        train = [0] * self.duration
        for t in self._index().get(neuron_id, ()):
            train[t] = 1
        return train


class Simulator:
    """Executes a network over discrete timesteps on the vector kernel."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self._compiled = CompiledNetwork.from_network(network)

    def run(
        self,
        duration: int,
        input_spikes: Mapping[int, Iterable[int]] | None = None,
        input_charges: Iterable[tuple[int, int, float]] | None = None,
    ) -> SimulationResult:
        """Simulate for ``duration`` timesteps.

        Parameters
        ----------
        input_spikes:
            neuron id -> timesteps at which an external spike arrives; each
            arrival injects exactly the neuron's threshold, forcing a fire
            (the usual TENNLab input convention).
        input_charges:
            arbitrary ``(neuron_id, timestep, amount)`` injections for
            sub-threshold stimulation.
        """
        times, ids, counts, potentials = run_compiled(
            self._compiled, duration, input_spikes, input_charges
        )
        neuron_ids = self._compiled.ids.tolist()
        return SimulationResult.from_raster(
            duration,
            times,
            ids,
            spike_counts=dict(zip(neuron_ids, counts.tolist())),
            final_potentials=dict(zip(neuron_ids, potentials.tolist())),
        )


def reference_run(
    network: Network,
    duration: int,
    input_spikes: Mapping[int, Iterable[int]] | None = None,
    input_charges: Iterable[tuple[int, int, float]] | None = None,
) -> SimulationResult:
    """The scalar specification of :meth:`Simulator.run` (the test oracle).

    Same arguments and result as :meth:`Simulator.run`, computed by
    walking dicts neuron by neuron in the documented order.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    out_syn = {
        nid: [
            (post, network.synapse(nid, post).weight,
             network.synapse(nid, post).delay)
            for post in sorted(network.successors(nid))
        ]
        for nid in network.neuron_ids()
    }
    pending: dict[int, dict[int, float]] = defaultdict(dict)  # t -> {nid: charge}

    def inject(nid: int, t: int, amount: float) -> None:
        if not network.has_neuron(nid):
            raise KeyError(f"input targets unknown neuron {nid}")
        if 0 <= t < duration:
            slot = pending[t]
            slot[nid] = slot.get(nid, 0.0) + amount

    if input_spikes:
        for nid, times in input_spikes.items():
            thr = network.neuron(nid).threshold
            for t in times:
                inject(nid, t, thr)
    if input_charges:
        for nid, t, amount in input_charges:
            inject(nid, t, amount)

    potentials = {nid: 0.0 for nid in network.neuron_ids()}
    leaks = {n.id: n.leak for n in network.neurons()}
    thresholds = {n.id: n.threshold for n in network.neurons()}
    result = SimulationResult(duration=duration)
    counts = {nid: 0 for nid in network.neuron_ids()}

    for t in range(duration):
        for nid, leak in leaks.items():
            if leak != 1.0:
                potentials[nid] *= leak
        for nid, charge in pending.pop(t, {}).items():
            potentials[nid] += charge
        # Deterministic firing order by neuron id.
        fired = [
            nid for nid in potentials
            if potentials[nid] >= thresholds[nid] - 1e-12
        ]
        for nid in sorted(fired):
            result.spikes.append((t, nid))
            counts[nid] += 1
            potentials[nid] = 0.0
            for post, weight, delay in out_syn[nid]:
                target_t = t + delay
                if target_t < duration:
                    slot = pending[target_t]
                    slot[post] = slot.get(post, 0.0) + weight

    result.spike_counts = counts
    result.final_potentials = dict(potentials)
    return result


def spike_profile(
    network: Network,
    samples: Iterable[Mapping[int, Iterable[int]]],
    duration: int,
) -> dict[int, int]:
    """Aggregate per-neuron spike counts over many input samples.

    This is the PGO profile ``W[i]`` of §IV-D: the number of times each
    neuron fired across the profiling dataset.
    """
    sim = Simulator(network)
    totals = {nid: 0 for nid in network.neuron_ids()}
    for sample in samples:
        result = sim.run(duration, input_spikes=sample)
        for nid, count in result.spike_counts.items():
            totals[nid] += count
    return totals
