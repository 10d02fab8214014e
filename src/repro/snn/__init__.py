"""Spiking-neural-network substrate: graphs, statistics, simulation,
generation (random + statistical twins of the paper's Table-I networks),
validation, encodings and serialization."""

from .analysis import (
    StructureReport,
    degree_histogram,
    feedback_synapses,
    network_depth,
    structure_report,
    weakly_connected_components,
)
from .encoding import decode_rate, encode_frame, rate_encode, ttfs_encode
from .engine import CompiledNetwork
from .generators import (
    TwinSpec,
    gini_degree_sequence,
    layered_network,
    random_network,
    realize_degree_sequences,
    statistical_twin,
)
from .io import load_network, network_from_dict, network_to_dict, save_network
from .network import Network, Neuron, Synapse
from .simulator import SimulationResult, Simulator, spike_profile
from .validation import LintIssue, LintLevel, has_errors, lint_network
from .stats import (
    NetworkStats,
    edge_density,
    gini_index,
    max_fan_in,
    max_fan_out,
    network_stats,
)

__all__ = [
    "CompiledNetwork",
    "Network",
    "NetworkStats",
    "Neuron",
    "SimulationResult",
    "Simulator",
    "LintIssue",
    "LintLevel",
    "has_errors",
    "lint_network",
    "Synapse",
    "TwinSpec",
    "StructureReport",
    "decode_rate",
    "degree_histogram",
    "feedback_synapses",
    "network_depth",
    "structure_report",
    "weakly_connected_components",
    "edge_density",
    "encode_frame",
    "gini_degree_sequence",
    "gini_index",
    "layered_network",
    "load_network",
    "max_fan_in",
    "max_fan_out",
    "network_from_dict",
    "network_stats",
    "network_to_dict",
    "random_network",
    "rate_encode",
    "realize_degree_sequences",
    "save_network",
    "spike_profile",
    "statistical_twin",
    "ttfs_encode",
]
