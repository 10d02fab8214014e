"""Restart survival: the journal-backed registry replays its history."""

from __future__ import annotations

import json

import pytest

from repro.jsonlio import read_jsonl
from repro.service.jobs import (
    JOB_DONE,
    JOB_QUEUED,
    JOURNAL_FORMAT,
    RESTART_REASON,
    JobRegistry,
)
from repro.service.wire import JobSpec

pytestmark = pytest.mark.service


def _registry(path, **kwargs) -> tuple[JobRegistry, JobRegistry]:
    # The registry writes and closes its own journal.
    registry = JobRegistry(journal=path, **kwargs)
    return registry, registry


class TestJournalReplay:
    def test_finished_job_survives_a_restart_verbatim(
        self, tmp_path, tiny_scenario
    ):
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(job)
        registry.add_result(job, {"status": "ok", "scenario": tiny_scenario.name})
        registry.finish(job, JOB_DONE)
        journal.close()

        reborn, journal2 = _registry(path)
        try:
            revived = reborn.get(job.id)
            assert revived is not None
            assert revived.status == JOB_DONE
            assert revived.error is None
            assert revived.results == [
                {"status": "ok", "scenario": tiny_scenario.name}
            ]
            assert [e["event"] for e in revived.events] == [
                "queued",
                "running",
                "result",
                "done",
            ]
            assert revived.submitted_at == pytest.approx(job.submitted_at)
            assert revived.finished_at == pytest.approx(job.finished_at)
            assert revived.spec.payload() == job.spec.payload()
            assert reborn.replay_skipped == 0
        finally:
            journal2.close()

    def test_interrupted_job_replays_as_queued(self, tmp_path, tiny_scenario):
        """A 202-accepted id must answer after a crash, and the next
        daemon must run it: queued again, not a 404 and not an error."""
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        queued = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        running = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(running)
        registry.add_result(running, {"status": "ok"})
        journal.close()  # the process "crashes" here

        reborn, journal2 = _registry(path)
        try:
            for job_id in (queued.id, running.id):
                revived = reborn.get(job_id)
                assert revived.status == JOB_QUEUED
                assert revived.error is None
                assert revived.results == []  # the re-run starts afresh
                assert revived.started_at is None
                assert revived.finished_at is None
                assert not revived.token.cancelled
            # Only the interrupted run needs the requeue; the queued job
            # replays exactly as it was journaled.
            assert [e["event"] for e in reborn.get(queued.id).events] == [
                "queued"
            ]
            assert reborn.get(running.id).events[-1]["event"] == "requeued"
            assert reborn.get(running.id).events[-1]["reason"] == RESTART_REASON
        finally:
            journal2.close()

    def test_second_restart_is_stable(self, tmp_path, tiny_scenario):
        """The requeue is itself journaled: replaying twice must replay
        the job queued once, without stacking duplicate events."""
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(job)
        journal.close()

        second, journal2 = _registry(path)
        first_events = list(second.get(job.id).events)
        journal2.close()

        third, journal3 = _registry(path)
        try:
            revived = third.get(job.id)
            assert revived.status == JOB_QUEUED
            assert [e["event"] for e in revived.events] == [
                e["event"] for e in first_events
            ]
            assert [e["event"] for e in revived.events] == [
                "queued",
                "running",
                "requeued",
            ]
        finally:
            journal3.close()

    def test_id_counter_resumes_past_the_replayed_maximum(
        self, tmp_path, tiny_scenario
    ):
        """New ids must not collide with (or sort before) journaled ones."""
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        old_ids = [
            registry.create(JobSpec(scenarios=(tiny_scenario,))).id
            for _ in range(3)
        ]
        journal.close()

        reborn, journal2 = _registry(path)
        try:
            fresh = reborn.create(JobSpec(scenarios=(tiny_scenario,)))
            assert fresh.id not in old_ids
            numbers = [int(job_id.split("-")[1]) for job_id in old_ids]
            assert int(fresh.id.split("-")[1]) == max(numbers) + 1
        finally:
            journal2.close()

    def test_replay_tolerates_garbage_and_counts_it(
        self, tmp_path, tiny_scenario
    ):
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(job)
        registry.finish(job, JOB_DONE)
        journal.close()

        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")  # torn line: skipped by the reader
            handle.write(
                json.dumps(
                    {"format": JOURNAL_FORMAT + 1, "job": "job-9", "event": "x"}
                )
                + "\n"
            )  # future schema: skipped and counted
            handle.write(
                json.dumps(
                    {"format": JOURNAL_FORMAT, "job": "job-0-orphan",
                     "event": "running", "ts": 1.0}
                )
                + "\n"
            )  # orphan (no queued line): skipped and counted

        reborn, journal2 = _registry(path)
        try:
            assert reborn.get(job.id).status == JOB_DONE
            assert reborn.replay_skipped == 2
        finally:
            journal2.close()

    def test_replayed_backlog_respects_the_retention_cap(
        self, tmp_path, tiny_scenario
    ):
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        jobs = [
            registry.create(JobSpec(scenarios=(tiny_scenario,)))
            for _ in range(5)
        ]
        for job in jobs:
            registry.start(job)
            registry.finish(job, JOB_DONE)
        journal.close()

        reborn, journal2 = _registry(path, max_finished=2)
        try:
            remaining = {job.id for job in reborn.jobs()}
            assert remaining == {jobs[3].id, jobs[4].id}
        finally:
            journal2.close()


class TestServiceLevelRestart:
    def test_daemon_restart_preserves_a_done_job(self, tmp_path, tiny_scenario):
        """The acceptance scenario: solve, stop, restart on the same
        journal, and query the pre-restart job id."""
        from repro.dse.explorer import Explorer
        from repro.service.daemon import MappingService

        path = tmp_path / "jobs.jsonl"
        service = MappingService(
            Explorer(time_limit=5.0),
            journal_path=path,
        )
        service.start()
        job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
        with service.registry._cond:
            service.registry._cond.wait_for(lambda: job.finished, timeout=60)
        assert job.status == JOB_DONE
        service.stop(wait=True)

        reborn = MappingService(
            Explorer(time_limit=5.0),
            journal_path=path,
        )
        try:
            revived = reborn.registry.get(job.id)
            assert revived is not None
            assert revived.status == JOB_DONE
            assert revived.results and revived.results[0]["status"] == "ok"
            assert revived.detail()["events"][-1]["event"] == JOB_DONE
        finally:
            reborn.stop(wait=True)

    def test_journal_lines_are_wire_shaped(self, tmp_path, tiny_scenario):
        """Every journal line is a flat JSON object with the format tag —
        the contract the replayer and external log shippers share."""
        path = tmp_path / "jobs.jsonl"
        registry, journal = _registry(path)
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(job)
        registry.finish(job, JOB_DONE)
        journal.close()

        records = list(read_jsonl(path))
        assert len(records) == 3
        assert all(record["format"] == JOURNAL_FORMAT for record in records)
        assert all(record["job"] == job.id for record in records)
        assert [record["event"] for record in records] == [
            "queued",
            "running",
            "done",
        ]
        assert records[0]["spec"]["format"]  # resubmittable wire payload
