"""Shared benchmark configurations.

Every bench regenerates one paper exhibit at a laptop-friendly scale and
asserts its qualitative *shape* (who wins, in which direction) — absolute
numbers depend on network scale and solver budget, exactly as the paper's
depend on its 5-hour CP-SAT runs.

Run:  pytest benchmarks/ --benchmark-only
"""

from repro.experiments.runner import ExperimentConfig

#: Cheap configuration for the exhibits whose shape survives small scale.
SMALL = ExperimentConfig(
    scale=0.12,
    area_time_limit=5.0,
    route_time_limit=4.0,
    num_samples=200,
)

#: Fig. 2 needs enough neurons that input-line capacity binds (otherwise
#: the MCC flaw never costs area on the homogeneous target).
FIG2 = ExperimentConfig(
    scale=0.25,
    area_time_limit=10.0,
    route_time_limit=5.0,
)

#: Fig. 9 wants a larger eval split for stable error bands.
FIG9 = ExperimentConfig(
    scale=0.2,
    area_time_limit=8.0,
    route_time_limit=6.0,
    num_samples=300,
)


def once(benchmark, fn):
    """Run an exhibit exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
