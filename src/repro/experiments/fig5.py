"""Fig. 5 reproduction: SNU route optimization, homogeneous target.

Takes each network's area-optimal homogeneous solution, freezes its
enabled-crossbar set, and minimizes global routes (objective 11).  The
paper observes 9.2-26.9% route reduction with no area increase;
improvement is relative to the most-area-optimal solution the solver
found.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..mapping.metrics import improvement_pct
from ..mapping.problem import MappingProblem
from .common import ExhibitResult, batch_pipeline_records, homo_problem
from .networks import NETWORK_NAMES, paper_network
from .runner import ExperimentConfig, format_table


@dataclass(frozen=True)
class SnuRow:
    """Route counts before/after SNU over a frozen crossbar set."""

    network: str
    area: float
    routes_before: int
    routes_after: int
    det_time: float

    @property
    def improvement(self) -> float:
        if self.routes_before == 0:
            return 0.0
        return improvement_pct(self.routes_before, self.routes_after)


def snu_rows(
    named_problems: list[tuple[str, MappingProblem]], config: ExperimentConfig
) -> list[SnuRow]:
    """Shared Fig. 5 / Fig. 6 protocol: area -> SNU over each instance.

    The whole sweep runs through the batch engine, so ``config.jobs``
    parallelizes it without changing the serial (default) results.
    """
    records = batch_pipeline_records(named_problems, config, stages=("area", "snu"))
    rows: list[SnuRow] = []
    for name, _ in named_problems:
        area_stage = records[name].stages["area"]
        snu_stage = records[name].stages["snu"]
        assert snu_stage.mapping.area() <= area_stage.mapping.area() + 1e-9
        rows.append(
            SnuRow(
                network=name,
                area=area_stage.mapping.area(),
                routes_before=area_stage.mapping.global_routes(),
                routes_after=snu_stage.mapping.global_routes(),
                det_time=snu_stage.det_time,
            )
        )
    return rows


def snu_over_area_optimal(
    name: str, problem: MappingProblem, config: ExperimentConfig
) -> SnuRow:
    """One (network, target) pair through the same batched protocol."""
    return snu_rows([(name, problem)], config)[0]


def run_fig5(config: ExperimentConfig) -> ExhibitResult:
    named_problems = [
        (name, homo_problem(paper_network(name, scale=config.scale), config))
        for name in NETWORK_NAMES
    ]
    rows = snu_rows(named_problems, config)
    table_rows = [
        (
            r.network,
            r.area,
            r.routes_before,
            r.routes_after,
            round(r.improvement, 1),
        )
        for r in rows
    ]
    headers = ["Net", "Area", "Global routes (area-opt)", "Global routes (SNU)", "Gain %"]
    note = "paper shape: 9.2-26.9% route reduction at unchanged area (homogeneous)"
    return ExhibitResult(
        report=format_table(headers, table_rows) + "\n" + note,
        rows=table_rows,
    )
