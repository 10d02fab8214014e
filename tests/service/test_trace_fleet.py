"""End-to-end tracing through the daemon and the multi-process fleet.

The contract: a traced job yields ONE trace — a single trace id whose
span tree stitches the HTTP accept, queue wait, lease, and worker solve
(with per-stage ILP phase spans and live branch-and-bound progress)
across every process it crossed, and that story survives worker murder
and daemon restarts exactly like the job itself does.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro import trace
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
from repro.service.jobs import JOB_DONE
from repro.service.wire import JobSpec, WireError
from repro.service.worker import FleetConfig
from repro.trace import render_tree

pytestmark = pytest.mark.service

CHAOS = str(Path(__file__).resolve().parent / "chaos.py")


def _scenario(dimension: int = 12) -> Scenario:
    return Scenario(
        architecture=ArchitectureSpec(kind="homogeneous", dimension=dimension),
        workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
        formulation=FormulationSpec(stages=("area",)),
    )


def _spec(*scenarios: Scenario, trace_context: str | None = None) -> JobSpec:
    return JobSpec(
        scenarios=tuple(scenarios),
        tier="ilp",
        time_limit=5.0,
        trace=trace_context,
    )


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
    kwargs.setdefault("trace_dir", tmp_path / "trace")
    return MappingService(
        explorer,
        fleet=fleet,
        journal_path=tmp_path / "journal.jsonl",
        fleet_config=config,
        **kwargs,
    )




def _spans_by_name(records: list[dict]) -> dict[str, dict]:
    return {r["name"]: r for r in records if r.get("kind") == "span"}


# ----------------------------------------------------------------------
class TestFleetTraceEndToEnd:
    def test_traced_job_yields_single_cross_process_span_tree(
        self, tmp_path, wait_drained
    ):
        """The acceptance walk: accept -> queue -> lease -> worker solve,
        one trace id, per-stage phase spans, live HiGHS progress events."""
        config = _fleet_config(tmp_path)
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job = service.submit(_spec(_scenario()))
            # The accept point minted a context and pinned it to the spec.
            assert job.spec.trace is not None
            trace_id = job.spec.trace.partition(":")[0]

            finished = wait_drained(service, job.id)
            assert finished.status == JOB_DONE

            payload = service.trace_payload(job.id)
            records = payload["records"]
            assert records, "no spans journaled"
            # ONE trace: every record, from every process, shares the id.
            assert {r["trace"] for r in records} == {trace_id}

            spans = _spans_by_name(records)
            for name in (
                "job",
                "queue",
                "lease",
                "worker-solve",
                "stage:area",
                "phase:solve",
            ):
                assert name in spans, f"missing span {name!r}:\n" + render_tree(
                    records
                )
            # The worker's mapper has no cache and races no arms, so the
            # trace shows neither step.
            assert "cache-lookup" not in spans, render_tree(records)
            assert "arm:highs" not in spans, render_tree(records)
            # The hops parent to the root "job" span...
            root = spans["job"]
            assert root.get("parent") is None
            for hop in ("queue", "lease", "worker-solve"):
                assert spans[hop]["parent"] == root["span"]
            # ...and the tree really crosses the process boundary.
            assert spans["queue"]["proc"].startswith("daemon-")
            assert spans["worker-solve"]["proc"].startswith("worker-")
            assert spans["stage:area"]["proc"] == spans["worker-solve"]["proc"]

            # Live solver progress: HiGHS incumbent/bound events, the last
            # one of a solve carrying objective, bound and gap.
            events = [r for r in records if r.get("kind") == "event"]
            assert any(e["name"] == "accepted" for e in events)
            progress = [
                e for e in events if e["name"] in ("incumbent", "bound")
            ]
            assert progress, "no HiGHS progress events:\n" + render_tree(records)
            assert any("det_time" in e.get("attrs", {}) for e in progress)
            assert any(
                {"objective", "bound", "gap"} <= set(e.get("attrs", {}))
                for e in progress
            )
        finally:
            service.stop(wait=True)

    def test_sigkilled_workers_spans_survive_and_trace_id_sticks(
        self, tmp_path, wait_drained
    ):
        """Salvage: spans journaled before a kill -9 outlive their worker,
        and the retried attempt continues the SAME trace."""
        config = _fleet_config(
            tmp_path,
            mapper_factory=f"{CHAOS}:traced_stalling_mapper",
            mapper_kwargs=(
                ("attempts_dir", str(tmp_path / "attempts")),
                ("fail_first", 1),
                ("delay", 60.0),
            ),
        )
        service = _service(tmp_path, fleet=1, config=config)
        try:
            service.start()
            job = service.submit(_spec(_scenario()))
            trace_id = job.spec.trace.partition(":")[0]

            pid = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                workers = service.supervisor.snapshot()["workers"]
                busy = [w for w in workers if w["job"] == job.id and w["pid"]]
                if busy:
                    pid = busy[0]["pid"]
                    break
                time.sleep(0.05)
            assert pid is not None, "worker never picked the job up"
            # Let the mapper journal its pre-stall "attempt" span first.
            attempts = tmp_path / "attempts" / "traced-stall.attempts"
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not attempts.exists():
                time.sleep(0.05)
            os.kill(pid, signal.SIGKILL)

            finished = wait_drained(service, job.id)
            assert finished.status == JOB_DONE
            # The retry rode the original context, not a fresh one.
            assert finished.spec.trace == job.spec.trace

            records = service.trace_payload(job.id)["records"]
            assert {r["trace"] for r in records} == {trace_id}
            attempts_seen = sorted(
                r["attrs"]["attempt"]
                for r in records
                if r.get("name") == "attempt"
            )
            # Attempt 1's span came from the murdered worker; attempt 2's
            # from its replacement — both in one tree.
            assert attempts_seen == [1, 2]
            procs = {
                r["proc"] for r in records if r.get("name") == "attempt"
            }
            assert len(procs) == 2, procs
        finally:
            service.stop(wait=True)

    def test_restarted_daemon_resumes_job_under_original_trace_id(
        self, tmp_path, wait_drained
    ):
        """A journal-replayed job keeps its trace id, and the new daemon's
        spans land in the same tree as the old daemon's accept event."""
        before = _service(
            tmp_path, fleet=1, config=_fleet_config(tmp_path)
        )
        job_id = before.submit(_spec(_scenario())).id
        original = before.registry.get(job_id).spec.trace
        assert original is not None
        before.stop(wait=True)

        after = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            assert after.registry.get(job_id).spec.trace == original
            after.start()
            job = wait_drained(after, job_id)
            assert job.status == JOB_DONE
            records = after.trace_payload(job_id)["records"]
            trace_id = original.partition(":")[0]
            assert {r["trace"] for r in records} == {trace_id}
            spans = _spans_by_name(records)
            assert "worker-solve" in spans
            # The pre-restart accept event is part of the same story.
            assert any(
                r.get("name") == "accepted"
                for r in records
                if r.get("kind") == "event"
            )
        finally:
            after.stop(wait=True)


# ----------------------------------------------------------------------
class TestOneCopyPerSpan:
    @pytest.mark.parametrize("fleet", [0, 1], ids=["thread", "fleet"])
    def test_stage_spans_are_live_and_recorded_once(
        self, tmp_path, wait_drained, fleet
    ):
        """Each span exists once, in the journal of the process that
        timed it, and every phase nests inside its live stage span."""
        scenario = Scenario(
            architecture=ArchitectureSpec(kind="homogeneous", dimension=12),
            workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
            formulation=FormulationSpec(stages=("area", "snu")),
        )
        service = _service(tmp_path, fleet=fleet, config=_fleet_config(tmp_path))
        try:
            service.start()
            job = service.submit(_spec(scenario))
            assert wait_drained(service, job.id).status == JOB_DONE
            records = service.trace_payload(job.id)["records"]
        finally:
            service.stop(wait=True)
        assert not (tmp_path / "trace" / "merged.jsonl").exists()
        spans = [r for r in records if r.get("kind") == "span"]
        ids = [r["span"] for r in spans]
        assert len(ids) == len(set(ids)), render_tree(records)
        by_id = {r["span"]: r for r in spans}
        stages = [r for r in spans if r["name"].startswith("stage:")]
        phases = [r for r in spans if r["name"].startswith("phase:")]
        assert [r["name"] for r in stages] == ["stage:area", "stage:snu"]
        assert phases, render_tree(records)
        for stage in stages:
            assert {"backend", "status"} <= set(stage["attrs"]), stage
        for phase in phases:
            stage = by_id[phase["parent"]]
            assert stage["name"] == f"stage:{phase['attrs']['stage']}"
            end = stage["start"] + stage["dur"]
            assert stage["start"] <= phase["start"] + 1e-6
            assert phase["start"] + phase["dur"] <= end + 1e-6, render_tree(records)


# ----------------------------------------------------------------------
class TestTraceHTTP:
    def _serve(self, service):
        server = make_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread, ServiceClient(
            f"http://127.0.0.1:{port}", timeout=30.0
        )

    def test_header_adopted_endpoint_serves_tree_bad_header_400(
        self, tmp_path
    ):
        service = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        server, thread, client = self._serve(service)
        try:
            service.start()
            # An inbound X-Repro-Trace context is adopted, not replaced.
            supplied = trace.mint_context().encode()
            accepted = client.submit(
                payload=_spec(_scenario()).payload(), trace=supplied
            )
            assert accepted["trace"] == supplied
            job_id = accepted["id"]
            client.wait(job_id, timeout=90.0)

            body = client.trace(job_id)
            assert body["trace"] == supplied
            trace_id = supplied.partition(":")[0]
            assert {r["trace"] for r in body["records"]} == {trace_id}
            assert "worker-solve" in _spans_by_name(body["records"])

            # A malformed header is a client error, not a silent drop.
            with pytest.raises(ServiceError) as excinfo:
                client.submit(
                    payload=_spec(_scenario(dimension=10)).payload(),
                    trace="NOT-HEX",
                )
            assert excinfo.value.status == 400

            # Unknown job ids 404 on the trace route too.
            with pytest.raises(ServiceError) as excinfo:
                client.trace("job-does-not-exist")
            assert excinfo.value.status == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            service.stop(wait=True)

    def test_stopped_service_releases_its_trace_sink(self, tmp_path):
        """A client-traced job on a later untraced service in the same
        process journals nothing into a stopped service's directory."""
        traced = MappingService(
            Explorer(store=RunStore(tmp_path / "a.jsonl")),
            trace_dir=tmp_path / "trace",
        )
        traced.start()
        traced.stop(wait=True)

        untraced = MappingService(
            Explorer(store=RunStore(tmp_path / "b.jsonl"))
        )
        server, thread, client = self._serve(untraced)
        supplied = trace.mint_context().encode()
        try:
            untraced.start()
            accepted = client.submit(
                payload=_spec(_scenario()).payload(), trace=supplied
            )
            assert client.wait(accepted["id"], timeout=90.0)["status"] == JOB_DONE
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            untraced.stop(wait=True)
        assert trace.get_runtime() is None
        trace_id = supplied.partition(":")[0]
        assert trace.read_trace_dir(tmp_path / "trace", trace_id) == []

    def test_metrics_exposes_trace_section_and_gap_gauge_lifecycle(
        self, tmp_path, wait_drained
    ):
        service = _service(tmp_path, fleet=1, config=_fleet_config(tmp_path))
        try:
            service.start()
            job = service.submit(_spec(_scenario()))
            wait_drained(service, job.id)
            body = service.metrics_payload()
            assert body["trace"]["enabled"] is True
            assert body["trace"]["dir"] == str(tmp_path / "trace")
            # Terminal jobs release their gap gauge; the dict stays clean.
            assert body["solver_progress"] == {}
        finally:
            service.stop(wait=True)


# ----------------------------------------------------------------------
class TestTraceWire:
    def test_spec_round_trips_trace_context(self):
        context = trace.mint_context().encode()
        spec = _spec(_scenario(), trace_context=context)
        from repro.service.wire import parse_job

        assert parse_job(spec.payload()).trace == context

    def test_spec_rejects_malformed_trace(self):
        with pytest.raises(WireError):
            _spec(_scenario(), trace_context="NOT-HEX")
        with pytest.raises(WireError):
            _spec(_scenario(), trace_context="abc")  # too short

    def test_untraced_payload_omits_the_key(self):
        assert "trace" not in _spec(_scenario()).payload()


# ----------------------------------------------------------------------
class TestPhaseTimingsWithoutTracing:
    def test_classic_untraced_service_still_records_phase_histograms(
        self, tmp_path, wait_drained
    ):
        """Satellite: per-phase timings feed /metrics even with tracing off."""
        explorer = Explorer(store=RunStore(tmp_path / "store.jsonl"))
        service = MappingService(explorer)  # no trace_dir anywhere
        try:
            service.start()
            job = service.submit(_spec(_scenario()))
            wait_drained(service, job.id)
            body = service.metrics_payload()
            assert "trace" not in body
            latency = body["latency"]
            for phase in ("build", "lower", "solve", "polish"):
                key = f"solve_phase_{phase}"
                assert key in latency, sorted(latency)
                assert latency[key]["count"] >= 1
        finally:
            service.stop(wait=True)
