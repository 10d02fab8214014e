"""Fig. 9 reproduction: profile-guided vs. static optimization.

Protocol (paper §V-H): map each network area-then-SNU-optimally, then
re-optimize placement with PGO using a small profile split (1% of the
SmartPixel-like dataset).  Both mappings are evaluated on the held-out
99%: the figure compares expected inter-crossbar spike (packet) counts
with error bands over evaluation samples, plus solver effort.

Expected shape: PGO reduces global packets a further 0.5-14.8% below the
best SNU solution while spending 1-3 orders of magnitude less solver time
(silent neurons drop out of the PGO objective), with low variance across
evaluation data confirming spiking regularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..mapping.metrics import improvement_pct
from ..mapping.pipeline import STAGES, MappingPipeline
from ..profile.profiler import collect_profile, evaluate_packets
from ..profile.smartpixel import SmartPixelConfig, generate_dataset, split_dataset
from .common import ExhibitResult, het_problem
from .networks import NETWORK_NAMES, paper_network
from .runner import ExperimentConfig, format_table


@dataclass(frozen=True)
class Fig9Row:
    """One network's SNU-vs-PGO packet comparison."""

    network: str
    snu_packets_mean: float
    snu_packets_std: float
    pgo_packets_mean: float
    pgo_packets_std: float
    snu_det: float
    pgo_det: float
    snu_wall: float
    pgo_wall: float

    @property
    def packet_gain(self) -> float:
        if self.snu_packets_mean == 0:
            return 0.0
        return improvement_pct(self.snu_packets_mean, self.pgo_packets_mean)

    @property
    def solver_speedup(self) -> float:
        """SNU/PGO solver-effort ratio (>1 means PGO is cheaper)."""
        return self.snu_det / max(self.pgo_det, 1e-9)


def _pixel_grid_for(num_inputs: int) -> tuple[int, int]:
    """Largest rows x cols grid not exceeding the input-neuron count."""
    side = max(2, int(math.floor(math.sqrt(num_inputs))))
    return side, side


def run_network(name: str, config: ExperimentConfig) -> Fig9Row:
    network = paper_network(name, scale=config.scale)
    problem = het_problem(network, config)

    rows, cols = _pixel_grid_for(len(network.input_ids()))
    dataset = generate_dataset(
        SmartPixelConfig(
            rows=rows,
            cols=cols,
            num_samples=config.num_samples,
            seed=config.seed,
        )
    )
    profile_samples, eval_samples = split_dataset(
        dataset,
        profile_fraction=config.profile_fraction,
        seed=config.seed,
        min_profile=3,
    )
    profile = collect_profile(
        network, profile_samples, window=config.sim_window, method=config.encoding
    )

    pipeline = MappingPipeline(
        problem,
        area_time_limit=config.area_time_limit,
        route_time_limit=config.route_time_limit,
    )
    stages = pipeline.run(stages=STAGES, profile=profile).stages
    snu_opt, pgo_opt = stages["snu"], stages["pgo"]

    snu_eval = evaluate_packets(
        snu_opt.mapping, eval_samples,
        window=config.sim_window, method=config.encoding,
    )
    pgo_eval = evaluate_packets(
        pgo_opt.mapping, eval_samples,
        window=config.sim_window, method=config.encoding,
    )

    return Fig9Row(
        network=name,
        snu_packets_mean=snu_eval.mean,
        snu_packets_std=snu_eval.std,
        pgo_packets_mean=pgo_eval.mean,
        pgo_packets_std=pgo_eval.std,
        snu_det=snu_opt.det_time,
        pgo_det=pgo_opt.det_time,
        snu_wall=snu_opt.solve_result.wall_time,
        pgo_wall=pgo_opt.solve_result.wall_time,
    )


def run_fig9(config: ExperimentConfig) -> ExhibitResult:
    rows = [run_network(name, config) for name in NETWORK_NAMES]
    table_rows = [
        (
            r.network,
            round(r.snu_packets_mean, 1),
            round(r.snu_packets_std, 1),
            round(r.pgo_packets_mean, 1),
            round(r.pgo_packets_std, 1),
            round(r.packet_gain, 1),
            round(r.solver_speedup, 2),
        )
        for r in rows
    ]
    headers = [
        "Net",
        "SNU pkts/sample",
        "+-",
        "PGO pkts/sample",
        "+-",
        "Gain %",
        "PGO det speedup x",
    ]
    note = (
        "paper shape: 0.5-14.8% packet reduction over best-SNU at 1-3 "
        "orders less solver effort; small error bands confirm regularity"
    )
    return ExhibitResult(
        report=format_table(headers, table_rows) + "\n" + note,
        rows=table_rows,
    )
