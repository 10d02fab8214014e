"""Lease state machine + journal replay tests for the job table.

The lease is part of each registry record: these tests drive the
workers' side of :class:`~repro.service.jobs.JobRegistry` (claim,
heartbeat, retry, dead-letter, restart) and its one journal.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import threading
import time

import pytest

from repro import jsonlio
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    WorkloadSpec,
)
from repro.service.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_ERROR,
    JOB_QUEUED,
    JOURNAL_FORMAT,
    LEASE_DEAD_LETTER,
    LEASE_FINISHED,
    LEASE_LEASED,
    LEASE_PENDING,
    JobRegistry,
)
from repro.service.wire import JobSpec

pytestmark = pytest.mark.service

SPEC = JobSpec(
    scenarios=(
        Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=12),
            workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
            formulation=FormulationSpec(stages=("area",)),
        ),
    ),
    time_limit=5.0,
)


class _Journaled:
    """A registry over one journal file, closed on exit like a daemon."""

    def __init__(self, path, **kwargs) -> None:
        self.registry = JobRegistry(journal=path, **kwargs)

    def __enter__(self) -> JobRegistry:
        return self.registry

    def __exit__(self, *exc_info) -> None:
        self.registry.close()


def _replay(path, **kwargs) -> JobRegistry:
    with _Journaled(path, **kwargs) as registry:
        return registry


class TestLeaseStateMachine:
    def test_claim_is_fifo_and_leases_with_ttl(self):
        registry = JobRegistry(lease_ttl=10.0)
        job_a = registry.create(SPEC)
        job_b = registry.create(SPEC)
        for job in (job_a, job_b):
            job.submitted_at = 100.0
        first = registry.claim("w0", now=100.0)
        assert first is job_a
        assert first.lease_state == LEASE_LEASED
        assert first.worker == "w0"
        assert first.attempts == 1
        assert first.lease_expires == 110.0
        assert first.status == JOB_QUEUED  # running only once a worker starts
        assert registry.claim("w1", now=100.0) is job_b
        assert registry.claim("w2", now=100.0) is None  # drained

    def test_enqueue_is_idempotent(self, tmp_path):
        """A duplicated accept record replays as one job, not two."""
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path) as registry:
            job = registry.create(SPEC)
        (queued,) = path.read_text().splitlines()
        with path.open("a") as fh:
            fh.write(queued + "\n")
        replayed = _replay(path)
        assert [j.id for j in replayed.jobs()] == [job.id]
        assert [e["event"] for e in replayed.get(job.id).events] == ["queued"]
        assert replayed.depth() == 1
        assert replayed.replay_skipped == 0

    def test_heartbeat_renews_only_active_leases(self):
        registry = JobRegistry(lease_ttl=10.0)
        job = registry.create(SPEC)
        registry.claim("w0", now=100.0)
        assert registry.heartbeat(job.id, now=105.0)
        assert job.lease_expires == 115.0
        registry.finish(job, JOB_DONE)
        assert not registry.heartbeat(job.id, now=106.0)  # stale worker
        assert not registry.heartbeat("nope", now=106.0)

    def test_expired_reports_lapsed_leases_once(self):
        registry = JobRegistry(lease_ttl=10.0)
        job = registry.create(SPEC)
        registry.claim("w0", now=100.0)
        assert registry.expired(now=105.0) == []  # still alive
        assert registry.expired(now=111.0) == [job]
        assert registry.expired(now=112.0) == []  # not double-counted
        assert registry.lease_counts()["leases_expired"] == 1

    def test_fail_attempt_backs_off_exponentially(self):
        registry = JobRegistry(max_attempts=5, backoff_base=1.0, backoff_cap=30.0)
        job = registry.create(SPEC)
        gates = []
        for _ in range(4):
            registry.claim("w0", now=job.submitted_at)
            state = registry.fail_attempt(job.id, "boom", now=1000.0)
            assert state == LEASE_PENDING
            gates.append(job.not_before - 1000.0)
            job.not_before = 0.0  # reopen the gate for the test
        assert gates == [1.0, 2.0, 4.0, 8.0]
        # Each retry is a client-visible requeue, reason = the failure.
        assert [e["event"] for e in job.events] == ["queued"] + ["requeued"] * 4
        assert job.events[-1]["reason"] == "boom"
        assert registry.lease_counts()["requeues"] == 4

    def test_backoff_gate_blocks_claims_until_not_before(self):
        registry = JobRegistry(backoff_base=5.0)
        job = registry.create(SPEC)
        job.submitted_at = 100.0
        registry.claim("w0", now=100.0)
        registry.fail_attempt(job.id, "boom", now=100.0)
        assert registry.claim("w0", now=102.0) is None  # inside backoff
        assert registry.claim("w0", now=106.0) is job

    def test_dead_letter_after_max_attempts(self):
        registry = JobRegistry(max_attempts=2, backoff_base=0.0)
        job = registry.create(SPEC)
        job.submitted_at = 100.0
        registry.claim("w0", now=100.0)
        assert registry.fail_attempt(job.id, "boom 1", now=100.0) == LEASE_PENDING
        registry.claim("w0", now=200.0)
        assert registry.fail_attempt(job.id, "boom 2", now=200.0) == LEASE_DEAD_LETTER
        assert job.lease_state == LEASE_DEAD_LETTER
        assert job.last_error == "boom 2"
        assert job.status == JOB_ERROR
        assert job.error == "dead-letter after 2 attempt(s): boom 2"
        assert registry.dead_letters() == [job]
        assert registry.claim("w0", now=300.0) is None  # never retried again
        assert registry.fail_attempt(job.id, "late", now=300.0) is None  # terminal
        counts = registry.lease_counts()
        assert counts["dead_letters"] == 1
        assert counts["by_state"] == {LEASE_DEAD_LETTER: 1}

    def test_requeue_for_restart_refunds_the_attempt(self):
        registry = JobRegistry(max_attempts=1)
        job = registry.create(SPEC)
        job.submitted_at = 100.0
        registry.claim("w0", now=100.0)
        registry.start(job)
        assert registry.requeue_for_restart(job.id, "shutdown")
        assert job.lease_state == LEASE_PENDING
        assert job.status == JOB_QUEUED
        assert job.attempts == 0  # the drain did not burn the only attempt
        assert job.events[-1]["reason"] == "shutdown"
        assert not registry.requeue_for_restart(job.id)  # no longer leased
        # The refunded attempt is immediately claimable and still has its
        # full budget: a real failure now dead-letters (max_attempts=1).
        registry.claim("w0", now=101.0)
        assert registry.fail_attempt(job.id, "boom", now=101.0) == LEASE_DEAD_LETTER

    def test_depth_counts_unfinished_only(self):
        registry = JobRegistry()
        job_a = registry.create(SPEC)
        registry.create(SPEC)
        registry.claim("w0")
        assert registry.depth() == 2
        registry.finish(job_a, JOB_DONE)
        assert registry.depth() == 1
        assert job_a.lease_state == LEASE_FINISHED
        assert job_a.status == JOB_DONE
        assert job_a.worker is None

    def test_terminal_records_beyond_the_cap_are_forgotten(self):
        registry = JobRegistry(max_finished=2)
        old = [registry.create(SPEC) for _ in range(3)]
        # Retention follows finish order, not submission order.
        for job in (old[1], old[0], old[2]):
            registry.finish(job, JOB_DONE)
        fresh = registry.create(SPEC)
        assert registry.get(old[1].id) is None  # the oldest-finished record
        assert [job.id for job in registry.jobs()] == [
            old[0].id,
            old[2].id,
            fresh.id,
        ]
        assert registry.depth() == 1


class TestJournalReplay:
    def test_restart_replays_pending_and_finished(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path) as registry:
            job_a = registry.create(SPEC)
            job_b = registry.create(SPEC)
            registry.claim("w0")
            registry.finish(job_a, JOB_DONE)
        replayed = _replay(path)
        assert replayed.get(job_a.id).lease_state == LEASE_FINISHED
        assert replayed.get(job_a.id).status == JOB_DONE
        assert replayed.get(job_b.id).lease_state == LEASE_PENDING
        assert replayed.get(job_b.id).spec.payload() == SPEC.payload()
        assert replayed.replay_skipped == 0

    def test_leased_jobs_requeue_on_restart_without_burning_budget(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path, max_attempts=1) as registry:
            job_id = registry.create(SPEC).id
            registry.claim("w0")
        with _Journaled(path, max_attempts=1) as replayed:
            job = replayed.get(job_id)
            assert job.lease_state == LEASE_PENDING
            assert job.attempts == 0  # refunded: the process died, not the job
            # Claimed but never started: nothing client-visible to undo.
            assert [e["event"] for e in job.events] == ["queued"]
            assert replayed.claim("w1") is job  # immediately claimable
        # A third restart replays w1's claim and requeues it in turn —
        # restarts are idempotent, the budget refund never goes negative.
        third = _replay(path, max_attempts=1)
        assert third.get(job_id).lease_state == LEASE_PENDING
        assert third.get(job_id).attempts == 0

    def test_dead_letters_survive_restart(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path, max_attempts=1) as registry:
            job = registry.create(SPEC)
            registry.claim("w0")
            registry.fail_attempt(job.id, "boom")
        replayed = _replay(path)
        revived = replayed.get(job.id)
        assert revived.lease_state == LEASE_DEAD_LETTER
        assert revived.last_error == "boom"
        assert revived.error == job.error
        assert revived.events == job.events  # the client view is verbatim
        assert replayed.dead_letters() == [revived]

    def test_backoff_gate_survives_restart(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path, max_attempts=3, backoff_base=1000.0) as registry:
            job = registry.create(SPEC)
            registry.claim("w0")
            registry.fail_attempt(job.id, "boom")
        replayed = _replay(path)
        revived = replayed.get(job.id)
        assert revived.lease_state == LEASE_PENDING
        assert revived.attempts == 1  # a *failed* attempt is not refunded
        assert revived.not_before == job.not_before
        assert revived.last_error == "boom"
        assert replayed.claim("w0") is None  # still backing off

    def test_torn_and_stale_lines_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path) as registry:
            job = registry.create(SPEC)
        # A pre-merge journal line: the old format is skipped, counted.
        stale = {"format": 1, "job": job.id, "event": "enqueued"}
        orphan = {"format": JOURNAL_FORMAT, "job": "ghost", "event": "leased"}
        with path.open("a") as fh:
            for record in (stale, orphan):
                fh.write(json.dumps(record) + "\n")
            fh.write('{"torn')  # no newline: crashed writer
        replayed = _replay(path)
        assert replayed.get(job.id).lease_state == LEASE_PENDING
        assert replayed.replay_skipped == 2  # stale format + orphan lease

    def test_heartbeats_are_journaled_lazily_but_replayed(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        with _Journaled(path, lease_ttl=10.0) as registry:
            job = registry.create(SPEC)
            registry.claim("w0", now=job.submitted_at)
            registry.heartbeat(job.id, now=job.submitted_at + 500.0)
        events = [json.loads(line)["event"] for line in path.read_text().splitlines()]
        # The renewal stays in memory: replay clears the lease anyway
        # (and requeues the job, because this process owns no worker).
        assert events == ["queued", "leased"]
        replayed = _replay(path)
        assert replayed.get(job.id).lease_state == LEASE_PENDING
        assert replayed.get(job.id).lease_expires is None


class TestSynchronousJournal:
    def test_every_transition_is_on_disk_when_it_returns(
        self, tmp_path, monkeypatch
    ):
        """No flush and no close: once a transition returns, its line is
        already the journal's last.  A write from any other thread is
        held back, so a write-behind line could not be there yet."""
        caller = threading.get_ident()
        append = jsonlio.append_records

        def held_back(handle, data):
            if threading.get_ident() != caller:
                time.sleep(0.2)
            return append(handle, data)

        monkeypatch.setattr(jsonlio, "append_records", held_back)
        path = tmp_path / "jobs.jsonl"
        registry = JobRegistry(journal=path, max_attempts=2)

        def last_line() -> tuple[str, str]:
            record = list(jsonlio.read_jsonl(path))[-1]
            return record["job"], record["event"]

        job = registry.create(SPEC)
        assert last_line() == (job.id, JOB_QUEUED)
        assert registry.claim("w0") is job
        assert last_line() == (job.id, "leased")
        assert registry.start(job)
        assert last_line() == (job.id, "running")
        registry.add_result(job, {"status": "ok", "scenario": "s"})
        assert last_line() == (job.id, "result")
        assert registry.fail_attempt(job.id, "worker died") == LEASE_PENDING
        assert last_line() == (job.id, "requeued")
        registry.finish(job, JOB_DONE)
        assert last_line() == (job.id, JOB_DONE)
        other = registry.create(SPEC)
        registry.cancel(other.id)
        assert last_line() == (other.id, JOB_CANCELLED)
        registry.close()


def _ledger_hammer(path: str, worker: int, jobs: int) -> None:
    padded = JobSpec(scenarios=SPEC.scenarios, client=f"{'x' * 60}-{worker:02d}")
    with _Journaled(path) as registry:
        for _ in range(jobs):
            registry.create(padded)
            claimed = registry.claim(f"w{worker}")
            if claimed is not None:
                registry.heartbeat(claimed.id)
                registry.start(claimed)
                registry.finish(claimed, JOB_DONE)


class TestMultiprocessHammer:
    def test_zero_torn_or_duplicate_lines(self, tmp_path):
        """N processes share one journal: every line whole, no dup accepts."""
        path = tmp_path / "jobs.jsonl"
        writers, jobs = 4, 20
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(target=_ledger_hammer, args=(str(path), w, jobs))
            for w in range(writers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        queued = []
        for line in path.read_text().splitlines():
            record = json.loads(line)  # every line parses — zero torn
            assert record["format"] == JOURNAL_FORMAT
            if record["event"] == "queued":
                queued.append((record["client"], record["job"]))
        assert len(queued) == writers * jobs
        assert len(set(queued)) == len(queued)  # zero duplicates
