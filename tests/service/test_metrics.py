"""Metrics spine: lock-consistent counters, histograms, the journal's
JSONL writer, and the ``GET /metrics`` scrape end to end."""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.batch.engine import BatchMapper
from repro.dse.explorer import Explorer
from repro.jsonlio import read_jsonl
from repro.service.daemon import MappingService
from repro.service.jobs import JobRegistry
from repro.service.metrics import HISTOGRAM_WINDOW, ServiceMetrics
from repro.service.wire import JobSpec
from repro.service.worker import FleetConfig

pytestmark = pytest.mark.service


class TestServiceMetricsCounters:
    def test_multithreaded_hammer_counts_exactly(self):
        """Concurrent updates through one lock lose nothing.

        Each thread submits and finishes a matched number of job events,
        so a scrape at the end must balance to the sample — any drift
        means an increment was lost or a snapshot tore.
        """
        metrics = ServiceMetrics()
        threads_n, rounds = 8, 250
        barrier = threading.Barrier(threads_n)

        def hammer() -> None:
            barrier.wait()
            for _ in range(rounds):
                metrics.job_event({"event": "queued"})
                metrics.job_event({"event": "running"})
                metrics.job_event(
                    {
                        "event": "result",
                        "status": "ok",
                        "wall_time": 0.01,
                        "stages": [{"stage": "area", "phases": [["solve", 0.01]]}],
                    }
                )
                metrics.job_event({"event": "done"})
                metrics.observe("queue_wait", 0.01)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)

        total = threads_n * rounds
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["jobs_submitted"] == total
        assert counters["jobs_started"] == total
        assert counters["jobs_finished"] == total
        assert counters["jobs_done"] == total
        assert counters["scenarios_total"] == total
        assert counters["scenarios_ok"] == total
        assert counters["ilp_solves"] == total
        assert snapshot["latency"]["solve_phase_solve"]["count"] == total
        assert snapshot["latency"]["queue_wait"]["count"] == total

    def test_job_event_classifies_every_transition(self):
        metrics = ServiceMetrics()
        metrics.job_event({"event": "queued"})
        metrics.job_event({"event": "running"})
        metrics.job_event({"event": "result", "status": "ok", "cached": True})
        metrics.job_event({"event": "result", "status": "error"})
        metrics.job_event({"event": "error"})
        counters = metrics.snapshot()["counters"]
        assert counters["scenarios_total"] == 2
        assert counters["scenarios_ok"] == 1
        assert counters["scenarios_error"] == 1
        assert counters["scenarios_cached"] == 1
        assert counters["jobs_finished"] == 1
        assert counters["jobs_error"] == 1
        assert "jobs_done" not in counters


class TestSolveHooks:
    def test_result_records_feed_the_solve_figures(self):
        """Solve figures are read off the ``stages`` of result records —
        the one shape thread and process workers both return."""
        metrics = ServiceMetrics()
        metrics.job_event(
            {
                "event": "result",
                "status": "ok",
                "wall_time": 0.5,
                "stages": [
                    {
                        "stage": "area",
                        "backend": "portfolio[highs]",
                        "phases": [["build", 0.1], ["solve", 0.3]],
                    },
                    {
                        "stage": "snu",
                        "backend": "portfolio[highs-interrupted]",
                        "phases": [["Solve", 0.05]],
                    },
                ],
            }
        )
        metrics.job_event(
            {
                "event": "result",
                "status": "ok",
                "wall_time": 0.25,
                "stages": [{"stage": "area", "backend": "highs"}, None],
            }
        )
        metrics.job_event({"event": "result", "status": "error", "stages": None})
        metrics.job_event(
            {"event": "result", "status": "ok", "cached": True, "stages": []}
        )
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["scenarios_total"] == 4
        assert counters["ilp_solves"] == 3  # the None stage is not a solve
        assert "portfolio" not in snapshot
        latency = snapshot["latency"]
        # One wall-time sample per result that ran a solve.
        assert latency["solve_wall_time"]["count"] == 2
        assert latency["solve_wall_time"]["sum"] == pytest.approx(0.75)
        assert latency["solve_phase_build"]["count"] == 1
        assert latency["solve_phase_solve"]["count"] == 2

    def test_cancelled_job_releases_in_flight(self, tiny_scenario, wait_drained):
        """``solves_in_flight`` is the workers holding a job, read at
        scrape time: a stalled solve holds one, its cancellation frees it."""

        class StallingMapper(BatchMapper):
            def __init__(self) -> None:
                super().__init__()
                self.entered = threading.Event()

            def map_all(self, batch_jobs, should_cancel=None):
                self.entered.set()
                while not should_cancel():
                    time.sleep(0.01)
                return super().map_all(batch_jobs, should_cancel=should_cancel)

        mapper = StallingMapper()
        service = MappingService(Explorer(mapper=mapper))
        service.start()
        try:
            job = service.submit(JobSpec(scenarios=(tiny_scenario,)))
            assert mapper.entered.wait(timeout=30)
            assert service.metrics_payload()["solves_in_flight"] == 1
            service.cancel(job.id)
            assert wait_drained(service, job).status == "cancelled"
            body = service.metrics_payload()
            assert body["solves_in_flight"] == 0
            assert body["solves"]["ilp_solves"] == 0
        finally:
            service.stop(wait=True)


class TestHistograms:
    def test_percentiles_over_a_known_population(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):  # 1..100, uniform
            metrics.observe("lag", float(value))
        body = metrics.snapshot()["latency"]["lag"]
        assert body["count"] == 100
        assert body["sum"] == pytest.approx(5050.0)
        assert body["max"] == 100.0
        assert body["p50"] == pytest.approx(51.0)
        assert body["p90"] == pytest.approx(91.0)
        assert body["p99"] == pytest.approx(100.0)

    def test_window_bounds_memory_but_count_is_lifetime(self):
        metrics = ServiceMetrics()
        for value in range(HISTOGRAM_WINDOW + 500):
            metrics.observe("lag", float(value))
        body = metrics.snapshot()["latency"]["lag"]
        assert body["count"] == HISTOGRAM_WINDOW + 500
        # Percentiles slide with the window: old cheap samples aged out.
        assert body["p50"] >= 500.0

    def test_empty_snapshot_has_no_histograms(self):
        assert ServiceMetrics().snapshot()["latency"] == {}


class TestJsonlWriter:
    """The service's one JSONL writer is the job registry's own journal
    append; :func:`repro.jsonlio.read_jsonl` reads it back."""

    def test_append_flush_read_round_trip(self, tmp_path, tiny_scenario):
        path = tmp_path / "log.jsonl"
        registry = JobRegistry(journal=path)
        spec = JobSpec(scenarios=(tiny_scenario,))
        ids = [registry.create(spec).id for _ in range(50)]
        registry.close()
        assert [record["job"] for record in read_jsonl(path)] == ids

    def test_appends_after_close_are_dropped_not_raised(
        self, tmp_path, tiny_scenario
    ):
        path = tmp_path / "log.jsonl"
        registry = JobRegistry(journal=path)
        spec = JobSpec(scenarios=(tiny_scenario,))
        first = registry.create(spec)
        registry.close()
        late = registry.create(spec)  # a racing worker must not crash
        registry.finish(first, "done")
        assert late.status == "queued" and first.status == "done"
        assert [r["job"] for r in read_jsonl(path)] == [first.id]

    def test_reader_skips_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"ok": 1}\n'
            "not json at all\n"
            "\n"
            '["a", "list", "not", "an", "object"]\n'
            '{"ok": 2}\n'
            '{"torn": '  # no newline: a crashed writer's tail
        )
        assert [record["ok"] for record in read_jsonl(path)] == [1, 2]

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert list(read_jsonl(tmp_path / "never-written.jsonl")) == []

    def test_writer_heals_a_torn_tail_before_appending(
        self, tmp_path, tiny_scenario
    ):
        path = tmp_path / "log.jsonl"
        path.write_text('{"torn": ')  # crashed sibling, no newline
        registry = JobRegistry(journal=path)
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.close()
        lines = path.read_text().splitlines()
        assert lines[0] == '{"torn": '  # terminated, not merged into ours
        assert json.loads(lines[1])["job"] == job.id

    def test_concurrent_appenders_never_tear_lines(self, tmp_path, tiny_scenario):
        path = tmp_path / "log.jsonl"
        registry = JobRegistry(journal=path)
        spec = JobSpec(scenarios=(tiny_scenario,))
        threads = [
            threading.Thread(
                target=lambda: [registry.create(spec) for _ in range(100)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        registry.close()
        records = list(read_jsonl(path))
        assert len(records) == 400  # every line parsed — nothing torn
        # Lines land in transition order: ids were minted in that order.
        assert [r["job"] for r in records] == [j.id for j in registry.jobs()]


class TestRegistryObservers:
    def test_observers_see_one_record_per_transition(self, tiny_scenario):
        """Observers get the journal-shaped records."""
        seen: list[dict] = []
        registry = JobRegistry(observers=(seen.append,))
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(job)
        registry.add_result(job, {"status": "ok", "scenario": "s"})
        registry.finish(job, "done")
        events = [record["event"] for record in seen]
        assert events == ["queued", "running", "result", "done"]
        assert all(record["job"] == job.id for record in seen)
        assert all("ts" in record for record in seen)
        # The queued record carries the resubmittable wire spec.
        assert seen[0]["spec"]["scenarios"]

    def test_observer_exceptions_are_the_observers_problem(self, tiny_scenario):
        """Registry calls observers synchronously; they must be cheap and
        non-throwing — this documents that a metrics sink (counter bumps,
        queue appends) satisfies the contract."""
        metrics = ServiceMetrics()
        registry = JobRegistry(observers=(metrics.job_event,))
        job = registry.create(JobSpec(scenarios=(tiny_scenario,)))
        registry.start(job)
        registry.finish(job, "done")
        counters = metrics.snapshot()["counters"]
        assert counters["jobs_submitted"] == 1
        assert counters["jobs_finished"] == 1


class TestMetricsEndpoint:
    def test_scrape_is_consistent_after_real_work(
        self, live_service, tiny_scenario
    ):
        """End to end: two submissions (one a store hit), then a scrape
        whose sections balance exactly — the acceptance invariants."""
        service, client = live_service
        first = client.wait(
            client.submit(scenarios=[tiny_scenario])["id"], timeout=60
        )
        second = client.wait(
            client.submit(scenarios=[tiny_scenario])["id"], timeout=60
        )
        assert first["status"] == "done" and second["status"] == "done"
        # The loop-lag probe samples only after its first interval; wait
        # for that sample so a scrape under load cannot race it.
        deadline = time.monotonic() + 30.0
        while "loop_lag" not in service.metrics.snapshot()["latency"]:
            assert time.monotonic() < deadline, "the loop-lag probe never sampled"
            time.sleep(0.01)

        body = client.metrics()
        assert body["status"] == "ok"
        assert body["uptime"] > 0
        assert body["queue_depth"] == 0
        assert body["solves_in_flight"] == 0

        jobs = body["jobs"]
        assert jobs["submitted"] == 2
        assert jobs["started"] == 2
        assert jobs["finished"]["total"] == 2
        assert jobs["finished"]["done"] == 2
        assert jobs["by_state"] == {"done": 2}

        scenarios = body["scenarios"]
        assert scenarios["total"] == 2
        assert scenarios["ok"] == 2
        assert scenarios["cached"] == 1  # the repeat was a zero-solve hit

        assert body["solves"] == {"ilp_solves": 1}  # the repeat ran none

        latency = body["latency"]
        for name in ("queue_wait", "job_duration", "solve_wall_time"):
            assert latency[name]["count"] >= 1
        assert latency["loop_lag"]["count"] >= 1  # the probe is alive
        assert body["store_entries"] >= 1

    def test_scrape_on_an_idle_daemon_is_all_zeros(self, live_service):
        _, client = live_service
        body = client.metrics()
        assert body["jobs"]["submitted"] == 0
        assert body["jobs"]["by_state"] == {}
        assert body["scenarios"]["total"] == 0
        assert "portfolio" not in body
        assert body["solves_in_flight"] == 0

    def test_fleet_and_thread_workers_count_the_same_solve(
        self, tmp_path, tiny_scenario, wait_drained
    ):
        """Solve figures reach ``/metrics`` from the results every worker
        returns, so a process worker's solve counts as a thread's does."""
        bodies = []
        for fleet in (0, 1):
            if fleet:
                store = str(tmp_path / "store.jsonl")
                service = MappingService(
                    fleet=1, fleet_config=FleetConfig(store_path=store)
                )
            else:
                service = MappingService(Explorer(time_limit=5.0), workers=1)
            service.start()
            try:
                job = service.submit(
                    JobSpec(scenarios=(tiny_scenario,), time_limit=5.0)
                )
                assert wait_drained(service, job).status == "done"
                assert job.results[0]["solves"] == 1
                bodies.append(service.metrics_payload())
            finally:
                service.stop(wait=True)
        names = []
        for body in bodies:
            assert body["solves"]["ilp_solves"] == 1
            assert body["solves_in_flight"] == 0
            solve_histograms = {
                name: histogram
                for name, histogram in body["latency"].items()
                if name.startswith("solve_")
            }
            assert "solve_wall_time" in solve_histograms
            assert all(h["count"] >= 1 for h in solve_histograms.values())
            names.append(sorted(solve_histograms))
        assert names[0] == names[1]
