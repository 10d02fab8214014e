"""Service/fleet bench: run-store throughput, fleet wall-clock, tracing cost.

Three measurements behind the crash-tolerant fleet:

- **store** — four writer processes append to the one run-store file
  under its ``flock`` (each key twice, so resume has superseded lines to
  skip); the append and resume rates are recorded, and every key must
  resume;
- **fleet** — a fleet of two worker processes finishes a batch of
  independent jobs in less wall-clock than one in-process worker thread,
  spawn overhead included (the recorded ``speedup`` tracks how much);
- **tracing** — end-to-end span tracing is cheap enough to leave on: the
  same batch runs traced and untraced (best of two each), and the
  recorded ``overhead_ratio`` must stay at or below
  ``MAX_TRACE_OVERHEAD``.

Emits ``BENCH_service.json`` at the **repo root** so both trajectories
are tracked across PRs alongside the other ``BENCH_*.json`` files.

Run:  pytest benchmarks/bench_service.py --benchmark-only
"""

import json
import multiprocessing
import tempfile
import time
from pathlib import Path

from bench_config import once
from repro.dse.explorer import Explorer
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    WorkloadSpec,
)
from repro.dse.store import TIER_ILP, RunEntry, RunStore
from repro.service.daemon import MappingService
from repro.service.wire import JobSpec
from repro.service.worker import FleetConfig

#: Repo root (benchmarks/ is one level below it).
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Store workload: each writer appends KEYS keys twice (the second write
#: supersedes the first, so resume has stale lines to skip).
WRITERS = 4
KEYS_PER_WRITER = 150

#: Fleet workload: independent single-scenario jobs, each a real (0.5-4s)
#: ILP solve so process-spawn overhead doesn't dominate the comparison.
FLEET_SCENARIOS = (("C", 16), ("C", 18), ("A", 18), ("E", 18))
TIME_LIMIT = 15.0

#: Tracing workload: small real solves, re-run per mode on fresh
#: store so both modes do identical solver work.
TRACE_SCENARIOS = (("C", 16), ("A", 18), ("E", 18))
TRACE_REPEATS = 2

#: The always-on budget: a traced batch may cost at most 5% more
#: wall-clock than the identical untraced batch.
MAX_TRACE_OVERHEAD = 1.05


def _entry(fingerprint: str, payload_version: int) -> RunEntry:
    return RunEntry(
        fingerprint=fingerprint,
        tier=TIER_ILP,
        scenario={"name": f"bench-{fingerprint[:8]}"},
        status="ok",
        objectives={"area": 1.0, "energy": 2.0, "latency": float(payload_version)},
        assignment={str(i): i for i in range(16)},
        solves=payload_version,
    )


def _writer_main(path: str, writer: int, keys: int) -> None:
    with RunStore(path) as store:
        for version in (1, 2):
            for index in range(keys):
                # Two versions of one key: same fingerprint, new payload,
                # so resume must pick winners among stale lines.
                fingerprint = f"{writer:02x}{index:06x}cafe0000"
                store.record(_entry(fingerprint, version))


def _hammer(path: Path) -> dict:
    """Four processes, each appending its keys twice; returns timings."""
    ctx = multiprocessing.get_context("spawn")
    workers = [
        ctx.Process(
            target=_writer_main,
            args=(str(path), writer, KEYS_PER_WRITER),
        )
        for writer in range(WRITERS)
    ]
    started = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    append_seconds = time.perf_counter() - started
    assert all(worker.exitcode == 0 for worker in workers)

    started = time.perf_counter()
    store = RunStore(path)
    resume_seconds = time.perf_counter() - started
    entries = len(store)
    store.close()
    total_appends = WRITERS * KEYS_PER_WRITER * 2
    return {
        "writers": WRITERS,
        "appends": total_appends,
        "entries_resumed": entries,
        "append_seconds": append_seconds,
        "appends_per_second": total_appends / append_seconds,
        "resume_seconds": resume_seconds,
        "resumes_per_second": entries / max(resume_seconds, 1e-9),
    }


def _scenarios() -> list[Scenario]:
    return [
        Scenario(
            architecture=ArchitectureSpec(
                kind="homogeneous", dimension=dimension
            ),
            workload=WorkloadSpec(network=network, scale=0.3, profile="uniform"),
            formulation=FormulationSpec(stages=("area",)),
        )
        for network, dimension in FLEET_SCENARIOS
    ]


def _run_single(tmp: Path) -> float:
    explorer = Explorer(
        store=RunStore(tmp / "single-store.jsonl"),
        time_limit=TIME_LIMIT,
    )
    service = MappingService(explorer)
    service.start()
    started = time.perf_counter()
    jobs = [
        service.submit(
            JobSpec(scenarios=(scenario,), tier="ilp", time_limit=TIME_LIMIT)
        )
        for scenario in _scenarios()
    ]
    _wait_all(service, [job.id for job in jobs])
    elapsed = time.perf_counter() - started
    service.stop(wait=True)
    return elapsed


def _run_fleet(tmp: Path) -> float:
    config = FleetConfig(
        store_path=str(tmp / "fleet-store.jsonl"),
        time_limit=TIME_LIMIT,
        heartbeat_interval=0.5,
        lease_ttl=30.0,
    )
    service = MappingService(
        fleet=2,
        journal_path=tmp / "journal.jsonl",
        fleet_config=config,
    )
    service.start()
    started = time.perf_counter()
    jobs = [
        service.submit(
            JobSpec(scenarios=(scenario,), tier="ilp", time_limit=TIME_LIMIT)
        )
        for scenario in _scenarios()
    ]
    _wait_all(service, [job.id for job in jobs])
    elapsed = time.perf_counter() - started
    service.stop(wait=True)
    return elapsed


def _trace_scenarios() -> list[Scenario]:
    return [
        Scenario(
            architecture=ArchitectureSpec(
                kind="homogeneous", dimension=dimension
            ),
            workload=WorkloadSpec(network=network, scale=0.3, profile="uniform"),
            formulation=FormulationSpec(stages=("area",)),
        )
        for network, dimension in TRACE_SCENARIOS
    ]


def _run_batch(tmp: Path, tag: str, trace_dir: Path | None) -> float:
    """One in-process service batch on a fresh store; returns wall-clock."""
    explorer = Explorer(
        store=RunStore(tmp / f"{tag}-store.jsonl"),
        time_limit=TIME_LIMIT,
    )
    service = MappingService(explorer, trace_dir=trace_dir)
    service.start()
    started = time.perf_counter()
    jobs = [
        service.submit(
            JobSpec(scenarios=(scenario,), tier="ilp", time_limit=TIME_LIMIT)
        )
        for scenario in _trace_scenarios()
    ]
    _wait_all(service, [job.id for job in jobs])
    elapsed = time.perf_counter() - started
    service.stop(wait=True)
    return elapsed


def _trace_overhead(tmp: Path) -> dict:
    """Traced-vs-untraced wall-clock on identical work, best of N each.

    Runs alternate modes (untraced, traced, untraced, ...) so slow
    machine-wide drift hits both sides equally; the min per mode strips
    scheduler noise from what is fundamentally a deterministic batch.
    """
    untraced, traced = [], []
    from repro import trace as trace_mod

    for repeat in range(TRACE_REPEATS):
        untraced.append(_run_batch(tmp, f"plain-{repeat}", None))
        traced.append(
            _run_batch(tmp, f"traced-{repeat}", tmp / f"trace-{repeat}")
        )
    spans = len(trace_mod.read_trace_dir(tmp / "trace-0"))
    return {
        "jobs": len(TRACE_SCENARIOS),
        "repeats": TRACE_REPEATS,
        "untraced_seconds": min(untraced),
        "traced_seconds": min(traced),
        "overhead_ratio": min(traced) / min(untraced),
        "records_per_batch": spans,
        "max_overhead": MAX_TRACE_OVERHEAD,
    }


def _wait_all(service, job_ids, timeout: float = 300.0) -> None:
    deadline = time.monotonic() + timeout
    for job_id in job_ids:
        while True:
            job = service.registry.get(job_id)
            if job is not None and job.finished:
                assert job.status == "done", f"{job_id}: {job.error}"
                break
            if time.monotonic() > deadline:
                raise AssertionError(f"{job_id} unfinished after {timeout}s")
            time.sleep(0.05)


def _run_bench() -> dict:
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        store = _hammer(tmp / "store.jsonl")
        single_wall = _run_single(tmp)
        fleet_wall = _run_fleet(tmp)
        tracing = _trace_overhead(tmp)
    return {
        "tracing": tracing,
        "store": store,
        "fleet": {
            "jobs": len(FLEET_SCENARIOS),
            "single_process_seconds": single_wall,
            "fleet_of_2_seconds": fleet_wall,
            "speedup": single_wall / fleet_wall,
        },
    }


def test_benchmark_service(benchmark):
    stats = once(benchmark, _run_bench)

    payload = {
        "schema": "repro.bench_service/2",
        "source": "benchmarks/bench_service.py",
        **stats,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    assert stats["store"]["entries_resumed"] == WRITERS * KEYS_PER_WRITER
    assert stats["fleet"]["speedup"] > 0  # recorded, not asserted faster:
    # two spawns plus solver variance can eat the win on tiny batches.

    tracing = stats["tracing"]
    assert tracing["records_per_batch"] > 0, "traced batch journaled nothing"
    assert tracing["overhead_ratio"] <= MAX_TRACE_OVERHEAD, (
        f"tracing cost {tracing['overhead_ratio']:.3f}x the untraced batch "
        f"(> {MAX_TRACE_OVERHEAD}x budget)"
    )
