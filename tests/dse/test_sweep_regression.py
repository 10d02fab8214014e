"""Quality of the stock adaptive sweep with one HiGHS arm per rung.

Area-only scenarios take their route tie-break from the pipeline's
polish, not from a racing heuristic; this pins what the stock
``default_space`` sweep gets from that.  The solve budget is half of
what the grid executes, and the grid solves each uniform/hotspot pair of
a pgo-free scenario once (the profile only scores the mapping): 18 stage
solves, so the sweep gets 9.  It evaluates 7 scenarios where a budget of
half the grid's 36 stages bought 13, and keeps the frontier those 13
gave: the sums below cover fewer results, the hypervolume is the same.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse import (
    Explorer,
    ScenarioRegistry,
    default_space,
    explore_adaptive,
    hypervolume,
)
from repro.mapping.metrics import evaluate_mapping
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping

pytestmark = pytest.mark.dse


def test_stock_adaptive_sweep_quality():
    result = explore_adaptive(default_space(), Explorer(portfolio=True, jobs=1))
    assert result.ilp_solves == 9
    registry = ScenarioRegistry()
    area = routes = packets = 0
    for scenario_result in result.ok_results():
        scenario = scenario_result.scenario
        problem = MappingProblem(
            registry.network(scenario.workload), registry.pool(scenario)
        )
        mapping = Mapping(problem, scenario_result.assignment)
        assert mapping.is_valid()
        metrics = evaluate_mapping(mapping, registry.profile(scenario.workload))
        area += metrics.area
        routes += metrics.global_routes
        packets += metrics.global_packets
    assert area == 1872
    assert routes <= 72
    assert packets <= 1340
    assert hypervolume(
        result.objective_points(), np.array([1024.0, 50000.0, 64.0])
    ) == pytest.approx(2538474499.84)
