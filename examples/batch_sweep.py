#!/usr/bin/env python
"""Batch sweep: map a fleet of networks in parallel and cache the answers.

Walks the sweep-scale API end to end:

1. generate eight independent sparse SNNs,
2. build one area+SNU mapping job per network,
3. run them serially, then across a process pool (same results, less wall
   clock on multi-core machines),
4. read each stage's exact HiGHS solve off the records (status, nodes),
5. re-run the sweep against a result cache and watch every job hit.

Run:  python examples/batch_sweep.py
"""

import time

from repro.batch import BatchJob, BatchMapper, ResultCache
from repro.mca import homogeneous_architecture
from repro.snn import random_network


def make_jobs(count: int = 8) -> list[BatchJob]:
    # Sized so every solve reaches proven optimality well within budget:
    # optimal solves are deterministic, so the pooled sweep reproduces the
    # serial one exactly.  (Wall-clock-limited solves would return
    # timing-dependent incumbents under CPU contention.)
    jobs = []
    for i in range(count):
        network = random_network(18, 36, seed=300 + i, max_fan_in=6,
                                 name=f"sweep-{i}")
        architecture = homogeneous_architecture(network.num_neurons, dimension=8)
        jobs.append(
            BatchJob(
                name=network.name,
                network=network,
                architecture=architecture,
                stages=("area", "snu"),
                area_time_limit=30.0,
                route_time_limit=15.0,
            )
        )
    return jobs


def timed(label: str, mapper: BatchMapper, jobs: list[BatchJob]):
    start = time.perf_counter()
    result = mapper.map_all(jobs)
    elapsed = time.perf_counter() - start
    print(f"\n== {label} ({elapsed:.1f}s wall) ==")
    print(result.report())
    return result, elapsed


def main() -> None:
    jobs = make_jobs()

    # 1. Serial baseline: jobs=1 is exactly the plain loop.
    serial, serial_wall = timed("serial", BatchMapper(jobs=1), jobs)

    # 2. Pooled: identical per-problem results, overlapped wall clock.
    pooled, pooled_wall = timed("pooled (4 workers)", BatchMapper(jobs=4), jobs)
    identical = all(
        a.final().mapping.assignment == b.final().mapping.assignment
        for a, b in zip(serial, pooled)
    )
    print(f"pooled == serial: {identical}; "
          f"speedup {serial_wall / max(pooled_wall, 1e-9):.2f}x")

    # 3. Solve report: every stage is one exact HiGHS solve.
    for record in serial:
        solves = ", ".join(
            f"{name} {stage.solve_result.status.value} "
            f"({stage.solve_result.node_count} nodes)"
            for name, stage in record.stages.items()
        )
        print(f"{record.name}: {solves}")

    # 4. Cached re-run: the fingerprint turns the second sweep into lookups.
    cache = ResultCache()
    mapper = BatchMapper(jobs=1, cache=cache)
    mapper.map_all(jobs)
    _, cached_wall = timed("cached re-run", mapper, jobs)
    print(f"cache: {cache.stats.hits} hits / {cache.stats.lookups} lookups, "
          f"re-run took {cached_wall:.2f}s")


if __name__ == "__main__":
    main()
