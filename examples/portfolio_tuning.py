#!/usr/bin/env python
"""Portfolio tuning: one fig2 scenario mapped two ways.

Solves the SNU (global-route minimization) stage of a fig2 paper
scenario with two solver configurations on the same route model and
prints a wall-clock / objective table:

1. **exact**           — the baseline node-capped HiGHS arm (no
                         heuristic seed);
2. **lp_round-seeded** — the accelerated portfolio: the ``lp_round``
                         racer (LP relaxation + delta-guided repair)
                         produces an incumbent in seconds and donates it
                         to a node-capped ``emphasis="speed"`` exact arm
                         as a root cutoff.

Run:  PYTHONPATH=src python examples/portfolio_tuning.py [--smoke]

``--smoke`` shrinks the instance and budgets so the whole script
finishes in a few seconds — this is what CI runs.  Without it the
script uses the fig2-E exhibit scale tracked in ``BENCH_ilp.json``.
"""

from __future__ import annotations

import argparse
import time

from repro.batch.portfolio import PortfolioOptions, PortfolioSolver
from repro.experiments.common import het_problem
from repro.experiments.networks import paper_network
from repro.experiments.runner import ExperimentConfig
from repro.ilp.solve import SolverSpec, solve_model
from repro.mapping.greedy import greedy_first_fit
from repro.mapping.snu import build_snu_model


def solve_two_ways(scale: float, node_cap: int, lp_time: float) -> list[dict]:
    config = ExperimentConfig(scale=scale)
    network = paper_network("E", scale=scale)
    problem = het_problem(network, config)
    base = greedy_first_fit(problem)
    print(
        f"fig2-E @ scale {scale:g}: {problem.num_neurons} neurons, "
        f"{problem.num_slots} slots, greedy global routes "
        f"{base.global_routes()}"
    )

    rows: list[dict] = []

    def run(label: str, fn) -> None:
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        rows.append(
            {
                "mode": label,
                "wall_s": wall,
                "objective": result.objective,
                "status": result.status.value,
                "backend": result.backend,
            }
        )

    handle = build_snu_model(problem, base)

    # 1. Exact arm.
    run(
        "exact",
        lambda: solve_model(
            handle.model,
            SolverSpec("highs", node_limit=node_cap),
        ),
    )

    # 2. Accelerated portfolio: lp_round donates its incumbent to a
    #    loose node-capped exact arm (sequential races share incumbents).
    specs = (
        SolverSpec("lp_round", time_limit=lp_time),
        SolverSpec("highs", node_limit=node_cap, emphasis="speed"),
    )
    run(
        "lp_round-seeded",
        lambda: PortfolioSolver(PortfolioOptions(specs=specs)).solve(
            handle.model, warm_start=handle.warm_start_from(base)
        ),
    )
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instance + budgets (seconds total); used by CI",
    )
    args = parser.parse_args()

    if args.smoke:
        rows = solve_two_ways(scale=0.08, node_cap=50, lp_time=2.0)
    else:
        rows = solve_two_ways(scale=0.25, node_cap=150, lp_time=5.0)

    print()
    header = f"{'mode':<16} {'wall [s]':>9} {'objective':>10} {'status':>9}  backend"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['mode']:<16} {row['wall_s']:>9.2f} "
            f"{row['objective']:>10.1f} {row['status']:>9}  {row['backend']}"
        )

    exact = rows[0]
    seeded = rows[-1]
    if seeded["wall_s"] < exact["wall_s"]:
        print(
            f"\nlp_round-seeded finished {exact['wall_s'] / seeded['wall_s']:.1f}x "
            f"faster than the exact arm at objective "
            f"{seeded['objective']:g} (exact: {exact['objective']:g})"
        )


if __name__ == "__main__":
    main()
