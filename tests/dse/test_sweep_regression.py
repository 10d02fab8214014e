"""Quality of the stock adaptive sweep with one HiGHS arm per rung.

Area-only scenarios take their route tie-break from the pipeline's
polish, not from a racing heuristic; this pins what the stock
``default_space`` sweep gets from that.
"""

from __future__ import annotations

import pytest

from repro.dse import Explorer, ScenarioRegistry, default_space, explore_adaptive
from repro.mapping.metrics import evaluate_mapping
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping

pytestmark = pytest.mark.dse


def test_stock_adaptive_sweep_quality():
    result = explore_adaptive(default_space(), Explorer(portfolio=True, jobs=1))
    assert result.ilp_solves == 18
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
    assert area == 4128
    assert routes <= 98
    assert packets <= 2658
