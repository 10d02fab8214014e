"""Memristor-crossbar-architecture substrate: crossbar types and pools
(homogeneous + Table II heterogeneous), a mesh NoC, the mapped-processor
traffic model, and first-order area/energy accounting."""

from .architecture import (
    BASE_DIMENSIONS,
    MACRO_FACTORS,
    MAX_INPUT_CHANNELS,
    Architecture,
    custom_architecture,
    heterogeneous_architecture,
    homogeneous_architecture,
    table_ii_types,
)
from .crossbar import CrossbarSlot, CrossbarType
from .energy import CostSummary, EnergyModel, cost_summary, enabled_area
from .noc import LinkLoad, MeshNoC, MeshPosition, hop_weighted_packets
from .processor import (
    MappedProcessor,
    TrafficReport,
    count_packets,
    target_crossbars,
)

__all__ = [
    "Architecture",
    "BASE_DIMENSIONS",
    "CostSummary",
    "CrossbarSlot",
    "CrossbarType",
    "EnergyModel",
    "LinkLoad",
    "MACRO_FACTORS",
    "MAX_INPUT_CHANNELS",
    "MappedProcessor",
    "MeshNoC",
    "MeshPosition",
    "TrafficReport",
    "cost_summary",
    "count_packets",
    "custom_architecture",
    "enabled_area",
    "heterogeneous_architecture",
    "homogeneous_architecture",
    "hop_weighted_packets",
    "table_ii_types",
    "target_crossbars",
]
