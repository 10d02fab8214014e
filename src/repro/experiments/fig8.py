"""Fig. 8 reproduction: area/SNU evolution, network A, heterogeneous MCA.

Same protocol as Fig. 7 over the Table-II pool.  The paper observes
uniformly better area/power/solver-time than the homogeneous case, with a
genuine area-routes trade-off emerging at the optimization limit.
"""

from __future__ import annotations

from .common import ExhibitResult, het_problem
from .fig7 import evolution_frontier, hypothetical_bound
from .networks import paper_network
from .runner import ExperimentConfig, format_table


def run_fig8(config: ExperimentConfig) -> ExhibitResult:
    network = paper_network("A", scale=config.scale)
    problem = het_problem(network, config)
    points = evolution_frontier(problem, config)
    bound_area, bound_routes = hypothetical_bound(problem)
    rows = [
        (round(p.seconds, 2), p.area, p.routes_area_opt, p.routes_snu_opt)
        for p in points
    ]
    headers = ["seconds", "area", "routes(area-opt)", "routes(SNU)"]
    note = (
        f"hypothetical one-neuron-per-minimal-crossbar bound: "
        f"area={bound_area:g}, routes={bound_routes} "
        "(paper shape: uniformly better area than Fig. 7 at equal effort)"
    )
    from .report import trend_line

    trends = "\n".join(
        [
            trend_line("area   ", [p.area for p in points]),
            trend_line("routes ", [p.routes_snu_opt for p in points]),
        ]
    )
    return ExhibitResult(
        report=format_table(headers, rows) + "\n" + trends + "\n" + note,
        rows=rows,
    )
