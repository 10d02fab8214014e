"""Fleet chaos tests: the multi-process fleet under crashes and overload.

The contract being tested, end to end: a submitted job is *owed* a
terminal answer.  Workers may raise, stall, or be SIGKILLed mid-solve;
the daemon may stop and a new one may replay the same journal — the job
still finishes (or dead-letters with a diagnosable error), and the
results match what a direct single-process run produces.
"""

from __future__ import annotations

import os
import queue
import signal
import threading
import time
from pathlib import Path

import chaos
import pytest

from repro.batch.queue import QueueFull
from repro.dse.explorer import Explorer
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    WorkloadSpec,
)
from repro.dse.store import RunStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import MappingService, make_server
from repro.service.jobs import (
    JOB_DONE,
    JOB_ERROR,
    JOB_QUEUED,
    LEASE_DEAD_LETTER,
    LEASE_FINISHED,
    LEASE_PENDING,
    JobRegistry,
)
from repro.service.wire import JobSpec, result_payload
from repro.service.worker import FleetConfig, worker_main

pytestmark = pytest.mark.service

CHAOS = str(Path(__file__).resolve().parent / "chaos.py")

#: The deterministic slice of a result payload: solver outputs, not
#: timings.  ``wall_time``/``solves``/``cached`` legitimately differ
#: between a fleet run and a direct run; the *answer* must not.
DETERMINISTIC_FIELDS = (
    "scenario",
    "fingerprint",
    "tier",
    "status",
    "objectives",
    "assignment",
    "error",
)


def _scenario(dimension: int = 12, profile: str = "uniform") -> Scenario:
    return Scenario(
        architecture=ArchitectureSpec(kind="homogeneous", dimension=dimension),
        workload=WorkloadSpec(network="C", scale=0.1, profile=profile),
        formulation=FormulationSpec(stages=("area",)),
    )


def _spec(*scenarios: Scenario) -> JobSpec:
    return JobSpec(scenarios=tuple(scenarios), tier="ilp", time_limit=5.0)


def _fleet_config(tmp_path: Path, **overrides) -> FleetConfig:
    settings = dict(
        store_path=str(tmp_path / "store.jsonl"),
        time_limit=5.0,
        lease_ttl=5.0,
        heartbeat_interval=0.2,
        max_attempts=3,
        backoff_base=0.05,
        backoff_cap=0.2,
        drain_timeout=15.0,
    )
    settings.update(overrides)
    return FleetConfig(**settings)


def _service(tmp_path: Path, fleet: int, config: FleetConfig, **kwargs):
    explorer = Explorer(store=RunStore(tmp_path / "store.jsonl"))
    return MappingService(
        explorer,
        fleet=fleet,
        journal_path=tmp_path / "journal.jsonl",
        fleet_config=config,
        **kwargs,
    )




def _direct_payloads(*scenarios: Scenario) -> list[dict]:
    """The single-process ground truth for the same scenarios."""
    explorer = Explorer(time_limit=5.0)
    return [
        result_payload(result)
        for result in explorer.evaluate_ilp(list(scenarios), time_limit=5.0)
    ]


def _deterministic(payload: dict) -> dict:
    return {field: payload[field] for field in DETERMINISTIC_FIELDS}


# ----------------------------------------------------------------------
class TestWorkerMain:
    """The worker entry point, run in-process for direct inspection."""

    def test_solves_and_reports_results(self, tmp_path):
        config = FleetConfig(store_path=str(tmp_path / "store.jsonl"))
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        tasks.put({"job": "job-1", "spec": _spec(_scenario()).payload()})
        tasks.put(None)
        worker_main(0, config, tasks, results, threading.Event())

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        kinds = [message["type"] for message in messages]
        assert kinds[0] == "ready"
        assert messages[0]["pid"] == os.getpid()
        assert "started" in kinds
        result = next(m for m in messages if m["type"] == "result")
        assert result["job"] == "job-1"
        assert result["cancelled"] is False
        assert [r["status"] for r in result["results"]] == ["ok"]

    def test_unrunnable_spec_reports_failure(self, tmp_path):
        config = FleetConfig()
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        tasks.put({"job": "job-bad", "spec": {"format": 999}})
        tasks.put(None)
        worker_main(1, config, tasks, results, threading.Event())

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        failed = next(m for m in messages if m["type"] == "failed")
        assert failed["job"] == "job-bad"
        assert "unrunnable task" in failed["error"]

    def test_cancel_event_marks_results_cancelled(self, tmp_path):
        config = FleetConfig(store_path=str(tmp_path / "store.jsonl"))
        tasks: queue.Queue = queue.Queue()
        results: queue.Queue = queue.Queue()
        cancel = threading.Event()
        cancel.set()  # cancelled before the solve ever starts
        tasks.put({"job": "job-c", "spec": _spec(_scenario()).payload()})
        tasks.put(None)
        worker_main(0, config, tasks, results, cancel)

        messages = []
        while not results.empty():
            messages.append(results.get_nowait())
        result = next(m for m in messages if m["type"] == "result")
        assert result["cancelled"] is True


class TestSharedStore:
    def test_workers_answer_each_others_jobs_from_one_store(self, tmp_path):
        """A mapping one worker solved is a store hit for every other."""
        config = FleetConfig(store_path=str(tmp_path / "store.jsonl"))
        explorers = [
            Explorer(
                store=config.build_store(),
                mapper=config.build_mapper(worker),
                time_limit=5.0,
            )
            for worker in (0, 1)
        ]
        try:
            (fresh,) = explorers[0].evaluate_ilp([_scenario()])
            explorers[1].store.reload()
            (hit,) = explorers[1].evaluate_ilp([_scenario()])
        finally:
            for explorer in explorers:
                explorer.store.close()
        assert fresh.ok and not fresh.from_store
        assert hit.from_store and hit.stages == ()
        assert hit.assignment == fresh.assignment

    def test_worker_re_scores_a_siblings_solve_under_its_own_profile(
        self, tmp_path
    ):
        """A sibling's proven optimum answers a profile variant once the
        worker has reloaded the store: zero solves, re-scored energy."""
        config = FleetConfig(store_path=str(tmp_path / "store.jsonl"))
        explorers = [
            Explorer(
                store=config.build_store(),
                mapper=config.build_mapper(worker),
                time_limit=5.0,
            )
            for worker in (0, 1)
        ]
        try:
            (solved,) = explorers[0].evaluate_ilp([_scenario()])
            assert explorers[1].store.solved(solved.solve_key) is None
            explorers[1].store.reload()
            (variant,) = explorers[1].evaluate_ilp([_scenario(profile="hotspot")])
            entry = explorers[1].store.get(variant.fingerprint)
        finally:
            for explorer in explorers:
                explorer.store.close()
        assert solved.optimal and solved.solves == 1
        assert variant.fingerprint != solved.fingerprint
        assert variant.from_store and variant.solves == 0
        assert result_payload(variant)["cached"] is True
        assert variant.assignment == solved.assignment
        assert variant.objectives.energy != solved.objectives.energy
        assert entry.meta["solved_as"] == solved.fingerprint


# ----------------------------------------------------------------------
class TestFleetEndToEnd:
    def test_fleet_results_match_direct_run(self, tmp_path, wait_drained):
        first, second = _scenario(dimension=12), _scenario(dimension=10)
        service = _service(tmp_path, fleet=2, config=_fleet_config(tmp_path))
        try:
            service.start()
            job_a = service.submit(_spec(first))
            job_b = service.submit(_spec(second))
            done_a = wait_drained(service, job_a.id)
            done_b = wait_drained(service, job_b.id)
            assert done_a.status == JOB_DONE
            assert done_b.status == JOB_DONE

            fleet_payloads = [done_a.results[0], done_b.results[0]]
            direct = _direct_payloads(first, second)
            assert [_deterministic(p) for p in fleet_payloads] == [
                _deterministic(p) for p in direct
            ]

            stats = service.stats()
            assert stats["fleet"]["size"] == 2
            assert len(stats["fleet"]["workers"]) == 2
            assert all(w["pid"] for w in stats["fleet"]["workers"])
            assert stats["ledger"]["by_state"][LEASE_FINISHED] == 2
            metrics = service.metrics_payload()
            assert metrics["ledger"]["leases_granted"] >= 2
            assert metrics["jobs"]["finished"]["done"] == 2
        finally:
            service.stop(wait=True)

    def test_two_scenario_job_solves_in_one_worker(self, tmp_path, wait_drained):
        """A multi-scenario ILP job runs inside one daemonic worker
        process, which may not start a solver pool of its own."""
        first, second = _scenario(dimension=12), _scenario(dimension=10)
        service = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            service.start()
            job = service.submit(_spec(first, second))
            done = wait_drained(service, job.id)
            assert done.status == JOB_DONE
            assert [_deterministic(p) for p in done.results] == [
                _deterministic(p) for p in _direct_payloads(first, second)
            ]
        finally:
            service.stop(wait=True)

    def test_shared_store_resumes_across_workers(self, tmp_path, wait_drained):
        scenario = _scenario()
        service = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            service.start()
            first = wait_drained(service, service.submit(_spec(scenario)).id)
            second = wait_drained(service, service.submit(_spec(scenario)).id)
            assert first.status == JOB_DONE
            assert second.status == JOB_DONE
            # The repeat is a zero-solve store hit inside the worker.
            assert second.results[0]["cached"] is True
            assert _deterministic(first.results[0]) == _deterministic(
                second.results[0]
            )
        finally:
            service.stop(wait=True)

    def test_health_and_metrics_see_worker_store_appends(
        self, tmp_path, wait_drained
    ):
        """Workers append to the store file through their own handles:
        the daemon's endpoints must count the store on disk."""
        scenarios = (_scenario(dimension=12), _scenario(dimension=10))
        service = _service(tmp_path, fleet=2, config=_fleet_config(tmp_path))
        assert service.explorer is None
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
        try:
            service.start()
            for repeat in (False, True):
                for scenario in scenarios:
                    job = wait_drained(service, service.submit(_spec(scenario)).id)
                    assert job.status == JOB_DONE
                    assert job.results[0]["cached"] is repeat
            for body in (client.health(), client.metrics()):
                assert body["store_entries"] == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.stop(wait=True)
        assert not thread.is_alive()


# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_transient_fault_retries_then_succeeds(self, tmp_path, wait_drained):
        config = _fleet_config(
            tmp_path,
            mapper_factory=f"{CHAOS}:flaky_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 1),
                ("key", "transient"),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job = wait_drained(service, service.submit(_spec(_scenario())).id)
            assert job.status == JOB_DONE
            assert job.results[0]["status"] == "ok"
            assert job.attempts == 2
            counts = service.registry.lease_counts()
            assert counts["requeues"] >= 1
            assert service.metrics.snapshot()["counters"]["jobs_requeued"] >= 1
        finally:
            service.stop(wait=True)

    def test_dead_letter_after_exhausted_attempts(self, tmp_path, wait_drained):
        config = _fleet_config(
            tmp_path,
            max_attempts=2,
            mapper_factory=f"{CHAOS}:flaky_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 99),
                ("key", "doomed"),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job = wait_drained(service, service.submit(_spec(_scenario())).id)
            assert job.status == JOB_ERROR
            assert "dead-letter after 2 attempt(s)" in job.error
            assert job.lease_state == LEASE_DEAD_LETTER
            assert service.registry.lease_counts()["dead_letters"] == 1
        finally:
            service.stop(wait=True)

    def test_sigkill_mid_solve_requeues_and_finishes(self, tmp_path, wait_drained):
        config = _fleet_config(
            tmp_path,
            mapper_factory=f"{CHAOS}:stalling_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 1),
                ("key", "stall"),
                ("delay", 60.0),
            ),
        )
        scenario = _scenario()
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job_id = service.submit(_spec(scenario)).id

            # Wait until the worker is visibly mid-solve, then kill -9.
            pid = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                workers = service.supervisor.snapshot()["workers"]
                busy = [w for w in workers if w["job"] == job_id and w["pid"]]
                if busy:
                    pid = busy[0]["pid"]
                    break
                time.sleep(0.05)
            assert pid is not None, "worker never picked the job up"
            # Kill only once the stall has counted its attempt: a kill
            # before the bump would make the retry stall the full delay.
            while chaos.read_attempts(tmp_path / "attempts", "stall") < 1:
                assert time.monotonic() < deadline, "mapper never started"
                time.sleep(0.05)
            os.kill(pid, signal.SIGKILL)

            job = wait_drained(service, job_id)
            assert job.status == JOB_DONE
            assert service.supervisor.snapshot()["worker_restarts"] >= 1
            assert job.attempts == 2  # the killed attempt burned one
            # The answer survived the murder of its first solver.
            assert _deterministic(job.results[0]) == _deterministic(
                _direct_payloads(scenario)[0]
            )
        finally:
            service.stop(wait=True)


# ----------------------------------------------------------------------
class TestRestartAndDrain:
    def test_restart_on_same_ledger_resolves_pre_crash_jobs(
        self, tmp_path, wait_drained
    ):
        scenario = _scenario()
        before = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        # Never started: the job is journaled but unserved —
        # exactly the state a crash leaves behind.
        job_id = before.submit(_spec(scenario)).id
        before.stop(wait=True)

        after = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            replayed = after.registry.get(job_id)
            assert replayed is not None
            assert replayed.status == JOB_QUEUED
            after.start()
            job = wait_drained(after, job_id)
            assert job.status == JOB_DONE
            assert job.results[0]["status"] == "ok"
            # Replayed work belongs to the old process: the new daemon's
            # own submission counter stays clean.
            assert after.metrics_payload()["jobs"]["submitted"] == 0
        finally:
            after.stop(wait=True)

    def test_drain_timeout_requeues_inflight_job_without_burning_budget(
        self, tmp_path
    ):
        config = _fleet_config(
            tmp_path,
            drain_timeout=0.3,
            mapper_factory=f"{CHAOS}:stalling_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 99),
                ("key", "drain"),
                ("delay", 120.0),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        service.start()
        job_id = service.submit(_spec(_scenario())).id
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            workers = service.supervisor.snapshot()["workers"]
            if any(w["job"] == job_id for w in workers):
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker never picked the job up")
        service.stop(wait=True)

        # The in-flight job was handed back, not lost and not charged.
        assert service.registry.get(job_id).status == JOB_QUEUED
        reborn = JobRegistry(journal=tmp_path / "journal.jsonl")
        replayed = reborn.get(job_id)
        reborn.close()
        assert replayed.lease_state == LEASE_PENDING
        assert replayed.attempts == 0


# ----------------------------------------------------------------------
class TestBackpressure:
    def test_submit_beyond_depth_raises_queue_full(self, tmp_path):
        service = _service(
            tmp_path, fleet=1, config=_fleet_config(tmp_path), max_queue_depth=1
        )
        # Deliberately never started: depth can only grow.
        service.submit(_spec(_scenario()))
        with pytest.raises(QueueFull) as excinfo:
            service.submit(_spec(_scenario(dimension=10)))
        assert excinfo.value.retry_after is not None
        assert service.metrics.snapshot()["counters"]["backpressure_rejections"] == 1
        service.stop(wait=True)

    def test_http_front_turns_queue_full_into_429(self, tmp_path):
        service = _service(
            tmp_path, fleet=1, config=_fleet_config(tmp_path), max_queue_depth=1
        )
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=30.0)
        try:
            accepted = client.submit(payload=_spec(_scenario()).payload())
            assert accepted["status"] == "queued"
            with pytest.raises(ServiceError) as excinfo:
                client.submit(payload=_spec(_scenario(dimension=10)).payload())
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1
            health = client.health()
            assert health["max_queue_depth"] == 1
            assert health["queued"] == 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.stop(wait=True)
