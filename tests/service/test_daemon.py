"""End-to-end daemon tests: submit, poll, stream, cancel, share state."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.batch.engine import BatchMapper
from repro.batch.queue import QueueFull
from repro.dse.explorer import Explorer
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    ScenarioRegistry,
    WorkloadSpec,
    default_space,
)
from repro.jsonlio import read_jsonl
from repro.service.client import ServiceError
from repro.service.daemon import MappingService, Supervisor
from repro.service.jobs import JOB_CANCELLED, JOB_DONE, JOB_QUEUED
from repro.service.wire import JobSpec
from repro.service.worker import FleetConfig

pytestmark = [pytest.mark.service, pytest.mark.dse]


class TestLifecycle:
    def test_submit_poll_result(self, live_service, tiny_scenario):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario])
        assert job["status"] in ("queued", "running", "done")
        detail = client.wait(job["id"], timeout=60)
        assert detail["status"] == JOB_DONE
        (result,) = detail["results"]
        assert result["status"] == "ok"
        assert result["scenario"] == tiny_scenario.name
        assert result["solves"] >= 1
        assert set(result["objectives"]) >= {"area", "energy", "latency"}
        assert result["assignment"]  # neuron -> slot, string keys

    def test_stream_replays_and_follows_to_done(self, live_service, tiny_scenario):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario])
        events = [event["event"] for event in client.stream(job["id"])]
        assert events[0] == "queued"
        assert "result" in events
        assert events[-1] == JOB_DONE

    def test_greedy_tier_needs_no_solves(self, live_service, tiny_scenario):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario], tier="greedy")
        detail = client.wait(job["id"], timeout=60)
        assert detail["status"] == JOB_DONE
        (result,) = detail["results"]
        assert result["solves"] == 0
        assert result["objectives"] is not None

    def test_failing_scenario_fails_the_job(self, live_service):
        _, client = live_service
        bad = Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=12),
            # Table I has no network "Z": construction fails per-scenario.
            workload=WorkloadSpec(network="Z", scale=0.1, profile="uniform"),
            formulation=FormulationSpec(),
        )
        job = client.submit(scenarios=[bad])
        detail = client.wait(job["id"], timeout=60)
        assert detail["status"] == "error"
        assert detail["results"][0]["status"] == "error"

    def test_http_errors(self, live_service, tiny_scenario):
        _, client = live_service
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-999999-nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload={"scenarios": []})
        assert excinfo.value.status == 400

    def test_health_and_job_listing(self, live_service, tiny_scenario):
        _, client = live_service
        health = client.health()
        assert health["status"] == "ok"
        job = client.submit(scenarios=[tiny_scenario])
        client.wait(job["id"], timeout=60)
        listed = client.jobs()
        assert any(entry["id"] == job["id"] for entry in listed)
        assert client.health()["store_entries"] >= 1


class TestSharedState:
    def test_repeat_job_is_a_zero_solve_hit(self, live_service, tiny_scenario):
        _, client = live_service
        first = client.wait(
            client.submit(scenarios=[tiny_scenario])["id"], timeout=60
        )
        second = client.wait(
            client.submit(scenarios=[tiny_scenario])["id"], timeout=60
        )
        r1, r2 = first["results"][0], second["results"][0]
        assert r1["solves"] >= 1 and not r1["cached"]
        assert r2["solves"] == 0 and r2["cached"]
        # The answer is the *same* answer, not a re-derivation.
        assert r2["objectives"] == r1["objectives"]
        assert r2["assignment"] == r1["assignment"]
        assert r2["fingerprint"] == r1["fingerprint"]

    def test_parallel_clients_share_the_cache(self, live_service, tiny_scenario):
        """Concurrent identical submissions cost one solve total."""
        _, client = live_service
        details: list[dict] = []
        errors: list[Exception] = []

        def _one_client() -> None:
            try:
                job = client.submit(scenarios=[tiny_scenario])
                details.append(client.wait(job["id"], timeout=120))
            except Exception as exc:  # surfaces in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=_one_client) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(details) == 3
        assert all(d["status"] == JOB_DONE for d in details)
        results = [d["results"][0] for d in details]
        # One submission did the solve; every other one shared its answer.
        assert sum(r["solves"] for r in results) == 1
        assert sum(1 for r in results if r["cached"]) == 2
        assert len({str(r["assignment"]) for r in results}) == 1

    def test_service_result_is_bit_identical_to_direct_batchmapper(
        self, live_service, tiny_scenario
    ):
        """Acceptance: the daemon adds plumbing, not noise."""
        _, client = live_service
        detail = client.wait(
            client.submit(scenarios=[tiny_scenario], time_limit=5.0)["id"],
            timeout=60,
        )
        service_result = detail["results"][0]

        registry = ScenarioRegistry()
        job = registry.to_job(tiny_scenario, time_limit=5.0)
        record = BatchMapper().map_all([job]).record(job.name)
        direct = {
            str(i): j for i, j in record.final().mapping.assignment.items()
        }
        assert service_result["assignment"] == direct


class TestCancellation:
    def test_cancel_before_workers_start(self, tiny_scenario):
        service = MappingService()  # never started: jobs stay queued
        job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        cancelled = service.cancel(job.id)
        assert cancelled is not None and cancelled.status == JOB_CANCELLED
        assert job.token.cancelled
        # A worker starting later must drop the job, not run it.
        service.start()
        service.stop(wait=True)
        assert job.status == JOB_CANCELLED
        assert job.results == []

    def test_start_loses_the_race_to_cancel(self, tiny_scenario):
        """A cancel landing between pop and start() must stick."""
        from repro.service.jobs import JobRegistry

        registry = JobRegistry()
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        assert registry.cancel(job.id).status == JOB_CANCELLED
        assert registry.start(job) is False  # no resurrection
        assert job.status == JOB_CANCELLED
        events = [event["event"] for event in job.events]
        assert events[-1] == JOB_CANCELLED  # terminal event stays last

    def test_finished_jobs_are_evicted_beyond_the_retention_cap(
        self, tiny_scenario
    ):
        from repro.service.jobs import JOB_DONE as DONE
        from repro.service.jobs import JobRegistry

        registry = JobRegistry(max_finished=2)
        jobs = [
            registry.create(JobSpec(scenarios=(tiny_scenario,)))
            for _ in range(4)
        ]
        for job in jobs:
            registry.start(job)
            registry.finish(job, DONE)
        remaining = [job.id for job in registry.jobs()]
        assert remaining == [jobs[2].id, jobs[3].id]  # oldest evicted
        assert registry.get(jobs[0].id) is None
        # Running/queued jobs are never evicted, whatever the cap.
        live = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(live)
        for _ in range(3):
            extra = registry.create(JobSpec(scenarios=(tiny_scenario,)))
            registry.start(extra)
            registry.finish(extra, DONE)
        assert registry.get(live.id) is live

    def test_eviction_follows_finish_order_not_submission_order(
        self, tiny_scenario
    ):
        """A long-running early job must outlive later, earlier-finished ones.

        The regression this guards: eviction walked the registry in
        insertion order, so a slow job submitted first was evicted the
        moment it finished — even though jobs that finished long before
        it were fresher by submission time and survived.
        """
        from repro.service.jobs import JOB_DONE as DONE
        from repro.service.jobs import JobRegistry

        registry = JobRegistry(max_finished=2)
        slow = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        quick_1 = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        quick_2 = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        for job in (slow, quick_1, quick_2):
            registry.start(job)
        # Finish out of submission order: quick_1, quick_2, then slow.
        registry.finish(quick_1, DONE)
        registry.finish(quick_2, DONE)
        registry.finish(slow, DONE)
        remaining = {job.id for job in registry.jobs()}
        assert remaining == {quick_2.id, slow.id}  # oldest-*finished* went
        assert registry.get(quick_1.id) is None

    def test_multi_scenario_job_reports_every_scenario(
        self, live_service, tiny_scenario
    ):
        """One submission, many scenarios: all answered, one batch."""
        _, client = live_service
        second = Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=16),
            workload=tiny_scenario.workload,
            formulation=tiny_scenario.formulation,
        )
        job = client.submit(scenarios=[tiny_scenario, second], time_limit=5.0)
        detail = client.wait(job["id"], timeout=120)
        assert detail["status"] == JOB_DONE
        names = [result["scenario"] for result in detail["results"]]
        assert names == [tiny_scenario.name, second.name]
        assert all(result["status"] == "ok" for result in detail["results"])

    def test_cancel_unknown_job_is_none(self, live_service):
        service, client = live_service
        assert service.cancel("job-000000-nope") is None
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("job-000000-nope")
        assert excinfo.value.status == 404

    def test_cancel_endpoint_on_finished_job_is_idempotent(
        self, live_service, tiny_scenario
    ):
        _, client = live_service
        job = client.submit(scenarios=[tiny_scenario])
        client.wait(job["id"], timeout=60)
        summary = client.cancel(job["id"])  # finished: state is preserved
        assert summary["status"] == JOB_DONE

    def test_shutdown_drains_the_backlog_as_cancelled(self, tmp_path, tiny_scenario):
        """202-accepted jobs must end terminal, never vanish mid-queue —
        unless a journal hands them to the next daemon."""
        service = MappingService()  # never started: every job stays pending
        jobs = [
            service.submit(JobSpec(scenarios=(tiny_scenario,)))
            for _ in range(3)
        ]
        service.stop(wait=True)
        for job in jobs:
            assert job.status == JOB_CANCELLED
            assert job.results == []
            assert job.events[-1]["event"] == JOB_CANCELLED
        assert service.registry.depth() == 0

        journal = tmp_path / "jobs.jsonl"
        kept = MappingService(journal_path=journal)
        job = kept.submit(JobSpec(scenarios=(tiny_scenario,)))
        kept.stop(wait=True)
        assert job.status == JOB_QUEUED  # the journal replays it
        reborn = MappingService(journal_path=journal)
        try:
            assert reborn.registry.get(job.id).status == JOB_QUEUED
        finally:
            reborn.stop(wait=True)

    def test_shutdown_requeues_an_undrained_job_without_charging_it(
        self, tmp_path, tiny_scenario
    ):
        """Threads follow the fleet's drain rule: past ``drain_timeout``
        the in-flight job goes back to the queue, attempt refunded."""
        explorer = _StubExplorer(stall=True)
        service = MappingService(
            explorer,
            journal_path=tmp_path / "jobs.jsonl",
            fleet_config=FleetConfig(drain_timeout=0.2),
        )
        service.start()
        job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        assert explorer.entered.wait(timeout=30)
        service.stop(wait=True)
        assert job.status == JOB_QUEUED
        assert job.events[-1] == {
            "ts": job.events[-1]["ts"],
            "event": "requeued",
            "reason": "shutdown",
        }
        assert job.attempts == 0
        assert explorer.cancelled.wait(timeout=30)  # told to stop solving


class _StubExplorer:
    """An explorer whose ILP tier only counts its calls or, with
    ``stall``, runs until its worker is cancelled."""

    time_limit = 5.0
    cache = None

    def __init__(self, stall: bool = False) -> None:
        self.stall = stall
        self.calls = 0
        self._lock = threading.Lock()
        self.entered = threading.Event()
        self.cancelled = threading.Event()

    def evaluate_ilp(self, scenarios, time_limit=None, should_cancel=None):
        with self._lock:
            self.calls += 1
        self.entered.set()
        if self.stall:
            while not should_cancel():
                time.sleep(0.01)
            self.cancelled.set()
        return []




class TestAnswerDependsOnlyOnItsScenario:
    def test_same_answer_whatever_the_worker_ran_first(self, wait_drained):
        """One long-lived worker, two histories: the scenario's answer is
        the same whether the worker first ran its ``area`` sibling or an
        unrelated scenario."""
        by_name = {s.name: s for s in default_space().scenarios()}
        target = by_name["Cx0.12-uniform/het8/area+snu"]
        answers = []
        for first in ("Cx0.12-uniform/het8/area", "Cx0.12-uniform/homo12/area"):
            service = MappingService(Explorer(time_limit=5.0), workers=1)
            service.start()
            try:
                for scenario in (by_name[first], target):
                    job = service.submit(JobSpec(scenarios=(scenario,)))
                    assert wait_drained(service, job).status == JOB_DONE
                (result,) = job.results
                answers.append(result["objectives"])
            finally:
                service.stop(wait=True)
        assert answers[0] == answers[1]


class TestOneExecutionPath:
    def test_submit_wakes_an_idle_supervisor(
        self, monkeypatch, tiny_scenario, wait_drained
    ):
        """Dispatch is event-driven: an idle service never waits out a
        poll tick between accepting a job and running it."""
        monkeypatch.setattr(Supervisor, "POLL_INTERVAL", 5.0)
        service = MappingService(Explorer(time_limit=5.0))
        service.start()
        try:
            deadline = time.monotonic() + 10.0
            while not all(
                worker["ready"] for worker in service.supervisor.snapshot()["workers"]
            ):
                assert time.monotonic() < deadline, "worker thread never ready"
                time.sleep(0.01)
            started = time.monotonic()
            job = service.submit(JobSpec(scenarios=(tiny_scenario,), tier="greedy"))
            wait_drained(service, job, timeout=10.0)
            assert job.status == JOB_DONE
            assert time.monotonic() - started < 1.0
        finally:
            service.stop(wait=True)

    def test_thread_workers_run_every_job_exactly_once(
        self, tiny_scenario, wait_drained
    ):
        """More worker threads than cores, a tiny switch interval and
        concurrent submitters: every job runs once, and the counters and
        the job table agree."""
        explorer = _StubExplorer()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        service = MappingService(explorer, workers=4)
        service.start()
        try:
            jobs = []

            def submit_ten() -> None:
                for _ in range(10):
                    jobs.append(service.submit(JobSpec(scenarios=(tiny_scenario,))))

            threads = [threading.Thread(target=submit_ten) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            for job in jobs:
                assert wait_drained(service, job, timeout=30).status == JOB_DONE
            assert len(jobs) == explorer.calls == 40
            counters = service.metrics.snapshot()["counters"]
            assert counters["jobs_started"] == counters["jobs_done"] == 40
            assert service.registry.depth() == 0
            assert service.admission.snapshot()["in_flight"] == 0
        finally:
            service.stop(wait=True)
            sys.setswitchinterval(interval)

    def test_cancelled_job_frees_its_queue_slot(self, tiny_scenario):
        """The depth bound counts live jobs only: a cancel frees its slot
        at once, not when a worker would have claimed it."""
        with pytest.raises(ValueError):
            MappingService(max_queue_depth=0)
        service = MappingService(max_queue_depth=1)  # never started
        first = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        with pytest.raises(QueueFull):
            service.submit(JobSpec(scenarios=(tiny_scenario,)))
        service.cancel(first.id)
        assert service.registry.depth() == 0
        second = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        with pytest.raises(QueueFull):
            service.submit(JobSpec(scenarios=(tiny_scenario,)))
        service.stop(wait=True)
        assert second.status == JOB_CANCELLED

    def test_in_process_daemon_journals_its_ledger_and_replays_it(
        self, tmp_path, tiny_scenario, wait_drained
    ):
        """A job the first daemon accepted but never ran is re-run to
        ``done`` by the next daemon on the same journal, which holds one
        line per transition: accept, claim, start, result, finish."""
        journal = tmp_path / "jobs.jsonl"
        first = MappingService(journal_path=journal)  # accepts, never starts
        job_id = first.submit(JobSpec(scenarios=(tiny_scenario,))).id
        first.stop(wait=True)
        assert first.registry.get(job_id).status == JOB_QUEUED

        second = MappingService(
            Explorer(time_limit=5.0), journal_path=journal
        )
        try:
            assert second.registry.get(job_id).status == JOB_QUEUED
            second.start()
            job = wait_drained(second, second.registry.get(job_id))
            assert job.status == JOB_DONE
            assert job.results[0]["status"] == "ok"
        finally:
            second.stop(wait=True)
        events = [
            record["event"]
            for record in read_jsonl(journal)
            if record.get("job") == job_id
        ]
        assert events == ["queued", "leased", "running", "result", "done"]

    def test_accepted_job_is_on_disk_before_submit_returns(
        self, tmp_path, tiny_scenario
    ):
        """The 202 promise: once ``submit`` returns, the accept record is
        in the journal file — no stop, close or flush needed — so a
        SIGKILL right after the reply cannot lose the id."""
        journal = tmp_path / "jobs.jsonl"
        service = MappingService(journal_path=journal)  # never started
        try:
            for _ in range(20):
                job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
                queued = [
                    record
                    for record in read_jsonl(journal)
                    if record.get("job") == job.id
                ]
                assert [record["event"] for record in queued] == ["queued"]
                assert queued[0]["spec"] == job.spec.payload()
        finally:
            service.stop(wait=True)
