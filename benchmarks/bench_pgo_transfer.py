"""PGO workload-transfer ablation.

Extends Fig. 9: how does a PGO mapping optimized for one activity
distribution fare when the workload shifts?  Shape: on the *matching*
workload PGO is at least as good as SNU (ILP guarantee on the profile,
statistical on held-out samples); under structure-free noise the
advantage shrinks toward zero — the regularity premise, shown from both
sides.
"""

from bench_config import once
from repro.experiments.networks import paper_network
from repro.experiments.runner import ExperimentConfig
from repro.experiments.common import het_problem
from repro.mapping.pgo import expected_global_packets
from repro.mapping.pipeline import STAGES, MappingPipeline
from repro.profile.profiler import collect_profile
from repro.profile.workloads import hotspot_frames, noise_frames

CONFIG = ExperimentConfig(scale=0.15, area_time_limit=6.0, route_time_limit=4.0)
WINDOW = 16


def test_benchmark_pgo_transfer(benchmark):
    network = paper_network("D", scale=CONFIG.scale)
    problem = het_problem(network, CONFIG)
    side = max(2, int(len(network.input_ids()) ** 0.5))

    def run():
        hot_profile = collect_profile(
            network,
            hotspot_frames(rows=side, cols=side, num_samples=8, seed=3),
            window=WINDOW,
        )
        pipeline = MappingPipeline(
            problem,
            area_time_limit=CONFIG.area_time_limit,
            route_time_limit=CONFIG.route_time_limit,
        )
        stages = pipeline.run(stages=STAGES, profile=hot_profile).stages
        return stages["snu"].mapping, stages["pgo"].mapping, hot_profile

    snu_mapping, pgo_mapping, hot_profile = once(benchmark, run)

    # On the profiled workload PGO is provably no worse.
    assert expected_global_packets(pgo_mapping, hot_profile) <= (
        expected_global_packets(snu_mapping, hot_profile)
    )

    # Under a matching fresh sample the advantage persists...
    fresh = collect_profile(
        network,
        hotspot_frames(rows=side, cols=side, num_samples=20, seed=11),
        window=WINDOW,
    )
    matched_gain = expected_global_packets(snu_mapping, fresh) - (
        expected_global_packets(pgo_mapping, fresh)
    )

    # ...and under structure-free noise it may vanish, but the PGO
    # mapping must not be catastrophically worse (routes still bounded
    # by the frozen crossbar set).
    noisy = collect_profile(
        network,
        noise_frames(rows=side, cols=side, num_samples=20, density=0.8, seed=11),
        window=WINDOW,
    )
    snu_noise = expected_global_packets(snu_mapping, noisy)
    pgo_noise = expected_global_packets(pgo_mapping, noisy)
    assert matched_gain >= 0 or abs(matched_gain) <= 0.1 * max(
        expected_global_packets(snu_mapping, fresh), 1
    )
    assert pgo_noise <= 1.5 * max(snu_noise, 1)
