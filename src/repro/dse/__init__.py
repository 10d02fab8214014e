"""Design-space exploration: which (architecture, workload, formulation)
points are worth building?

The layer above :mod:`repro.batch`: a declarative scenario grid
(:mod:`~repro.dse.scenario`), a vectorized multi-objective Pareto engine
over (area, energy, latency) (:mod:`~repro.dse.pareto`,
:mod:`~repro.dse.objectives`), search drivers that spend ILP budget
adaptively (:mod:`~repro.dse.drivers`), and a crash-tolerant JSONL run
store that makes every sweep resumable (:mod:`~repro.dse.store`).

>>> from repro.dse import Explorer, RunStore, default_space, explore_adaptive
>>> result = explore_adaptive(
...     default_space(), Explorer(store=RunStore("runs.jsonl"), jobs=4)
... )  # doctest: +SKIP
>>> print(result.report())  # doctest: +SKIP
"""

from .._lazy import lazy_exports

#: Evaluation tiers of a run-store entry: the adaptive driver's greedy
#: bound and a real ILP answer.  Defined here, not in .store, so the
#: service client and wire format get them without loading the store.
TIER_GREEDY = "greedy"
TIER_ILP = "ilp"

_EXPORTS = {
    "DRIVERS": ".drivers",
    "explore_adaptive": ".drivers",
    "explore_grid": ".drivers",
    "ExplorationResult": ".explorer",
    "Explorer": ".explorer",
    "ScenarioResult": ".explorer",
    "OBJECTIVE_NAMES": ".objectives",
    "ObjectivePoint": ".objectives",
    "evaluate_objectives": ".objectives",
    "objective_matrix": ".objectives",
    "FrontierDiff": ".pareto",
    "crowding_distance": ".pareto",
    "frontier_diff": ".pareto",
    "hypervolume": ".pareto",
    "nondominated_mask": ".pareto",
    "pareto_rank": ".pareto",
    "reference_point": ".pareto",
    "ArchitectureSpec": ".scenario",
    "DesignSpace": ".scenario",
    "FormulationSpec": ".scenario",
    "Scenario": ".scenario",
    "ScenarioRegistry": ".scenario",
    "WorkloadSpec": ".scenario",
    "default_space": ".scenario",
    "formulation_from_payload": ".scenario",
    "scenario_from_payload": ".scenario",
    "RunEntry": ".store",
    "RunStore": ".store",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "ArchitectureSpec",
    "DRIVERS",
    "DesignSpace",
    "ExplorationResult",
    "Explorer",
    "FormulationSpec",
    "FrontierDiff",
    "OBJECTIVE_NAMES",
    "ObjectivePoint",
    "RunEntry",
    "RunStore",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioResult",
    "TIER_GREEDY",
    "TIER_ILP",
    "WorkloadSpec",
    "crowding_distance",
    "default_space",
    "evaluate_objectives",
    "explore_adaptive",
    "explore_grid",
    "formulation_from_payload",
    "frontier_diff",
    "hypervolume",
    "nondominated_mask",
    "objective_matrix",
    "pareto_rank",
    "reference_point",
    "scenario_from_payload",
]
