"""Spike profiling: from dataset samples to PGO weights.

Bridges the dataset, the encoder, and the simulator: every sample frame is
encoded onto the network's input neurons and simulated; per-neuron spike
counts accumulate into the :class:`~repro.mapping.pgo.SpikeProfile` that
objective 12 consumes.  The same machinery evaluates a finished mapping
over the held-out samples (per-sample global-packet counts — the error
bands of Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mapping.pgo import SpikeProfile
from ..mapping.solution import Mapping
from ..snn.encoding import encode_frame
from ..snn.network import Network
from ..snn.simulator import Simulator
from .smartpixel import PixelSample


def collect_profile(
    network: Network,
    samples: list[PixelSample],
    window: int = 24,
    method: str = "rate",
) -> SpikeProfile:
    """Simulate every sample and accumulate per-neuron spike counts.

    One :class:`~repro.snn.simulator.Simulator` (the vector kernel,
    compiled once) runs every dataset sample.
    """
    if window < 1:
        raise ValueError("window must be positive")
    input_ids = network.input_ids()
    if not input_ids:
        raise ValueError("network has no input neurons to encode onto")
    sim = Simulator(network)
    totals = {nid: 0 for nid in network.neuron_ids()}
    for sample in samples:
        spikes = encode_frame(sample.frame, input_ids, window, method)
        result = sim.run(window, input_spikes=spikes)
        for nid, count in result.spike_counts.items():
            totals[nid] += count
    return SpikeProfile(
        counts=totals,
        duration=window * len(samples),
        num_samples=len(samples),
    )


@dataclass(frozen=True)
class PacketEvaluation:
    """Per-sample global-packet statistics of a mapping over a dataset."""

    per_sample: list[int]

    @property
    def total(self) -> int:
        return sum(self.per_sample)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_sample)) if self.per_sample else 0.0

    @property
    def std(self) -> float:
        return float(np.std(self.per_sample)) if self.per_sample else 0.0

    def band(self, sigmas: float = 1.0) -> tuple[float, float]:
        """(low, high) error band around the mean."""
        return (self.mean - sigmas * self.std, self.mean + sigmas * self.std)


def evaluate_packets(
    mapping: Mapping,
    samples: list[PixelSample],
    window: int = 24,
    method: str = "rate",
) -> PacketEvaluation:
    """Global packets the mapping generates on each evaluation sample."""
    network = mapping.problem.network
    input_ids = network.input_ids()
    if not input_ids:
        raise ValueError("network has no input neurons to encode onto")
    sim = Simulator(network)
    per_sample: list[int] = []
    for sample in samples:
        spikes = encode_frame(sample.frame, input_ids, window, method)
        result = sim.run(window, input_spikes=spikes)
        _, global_ = mapping.packet_count(result.spike_counts)
        per_sample.append(global_)
    return PacketEvaluation(per_sample=per_sample)
