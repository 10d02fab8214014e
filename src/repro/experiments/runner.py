"""Experiment orchestration and reporting.

One :class:`ExperimentConfig` parameterizes every exhibit reproduction
(network scale, solver budgets, pool sizes).  The module doubles as a CLI:

    python -m repro.experiments.runner --exhibit fig2 --scale 0.15
    python -m repro.experiments.runner --exhibit all --full

``--full`` runs paper-scale networks with long budgets (hours, as in the
paper, which reported 5-hour solver limits); the default configuration is
sized for minutes on a laptop while preserving every qualitative shape.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment parameters."""

    scale: float = 0.25  # Table-I twin scaling factor
    seed: int = 7
    homo_dim: int = 16  # §V-C: 16x16 homogeneous crossbars
    homo_slack: float = 1.5
    het_slots_per_type: int = 12
    area_time_limit: float = 15.0  # seconds of HiGHS wall time
    route_time_limit: float = 8.0
    profile_fraction: float = 0.01  # §V-H: 1% PGO sample
    sim_window: int = 24
    num_samples: int = 400
    encoding: str = "ttfs"  # detector hits are single spikes per pixel
    jobs: int = 1  # worker processes for multi-network sweeps

    def full_scale(self) -> "ExperimentConfig":
        """Paper-scale variant (hours of solver time)."""
        return replace(
            self,
            scale=1.0,
            area_time_limit=3600.0,
            route_time_limit=1800.0,
            het_slots_per_type=64,
        )


def format_table(headers: list[str], rows: list[tuple]) -> str:
    """Fixed-width text table (the harness's terminal 'figure')."""
    str_rows = [
        [f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
        for row in rows
    ]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in str_rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


EXHIBITS = (
    "table1",
    "table2",
    "ablation",
    "fig2",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
)


def run_exhibit(name: str, config: ExperimentConfig) -> str:
    """Run one exhibit reproduction and return its text report."""
    # Imports are local so `--exhibit table1` does not pay for the others.
    if name == "table1":
        from .table1 import run_table1

        return run_table1(config)
    if name == "table2":
        from .table2 import run_table2

        return run_table2(config)
    if name == "ablation":
        from .ablation import run_ablation

        return run_ablation(config).report
    if name == "fig2":
        from .fig2 import run_fig2

        return run_fig2(config).report
    if name == "fig3":
        from .fig3 import run_fig3

        return run_fig3(config).report
    if name == "fig5":
        from .fig5 import run_fig5

        return run_fig5(config).report
    if name == "fig6":
        from .fig6 import run_fig6

        return run_fig6(config).report
    if name == "fig7":
        from .fig7 import run_fig7

        return run_fig7(config).report
    if name == "fig8":
        from .fig8 import run_fig8

        return run_fig8(config).report
    if name == "fig9":
        from .fig9 import run_fig9

        return run_fig9(config).report
    raise KeyError(f"unknown exhibit {name!r}; choose from {EXHIBITS}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures."
    )
    parser.add_argument(
        "--exhibit",
        default="all",
        help=f"one of {EXHIBITS} or 'all'",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--area-time-limit", type=float, default=None)
    parser.add_argument("--route-time-limit", type=float, default=None)
    parser.add_argument(
        "--full", action="store_true", help="paper-scale networks and budgets"
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for multi-network sweeps (default 1 = serial)",
    )
    args = parser.parse_args(argv)

    config = ExperimentConfig()
    if args.full:
        config = config.full_scale()
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.area_time_limit is not None:
        overrides["area_time_limit"] = args.area_time_limit
    if args.route_time_limit is not None:
        overrides["route_time_limit"] = args.route_time_limit
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if overrides:
        config = replace(config, **overrides)

    names = EXHIBITS if args.exhibit == "all" else (args.exhibit,)
    for name in names:
        print(f"=== {name} ===")
        print(run_exhibit(name, config))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
