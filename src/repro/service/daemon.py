"""The long-lived mapping daemon: worker loop + HTTP front end.

In thread mode (the default) a :class:`MappingService` owns exactly one
:class:`~repro.dse.explorer.Explorer` — and through it one shared
:class:`~repro.batch.engine.BatchMapper` and one :class:`~repro.dse.
store.RunStore`, the one place the service keeps answers — so every
client submission warms the same state: a job solved for one client is a
zero-solve answer for every later client that asks the same question.
In fleet mode (``fleet`` > 0) the daemon holds no explorer and never
imports the solver stack: each spawned worker builds its own, and the
daemon keeps only a read handle on the shared run store for
``/healthz`` and ``/metrics``.

Submissions flow ``HTTP -> JobRegistry -> Supervisor -> worker (thread
or process) -> Explorer``; the registry is the one job table (client
view and lease state) and keeps the one journal.  Progress flows back
as registry events that ``GET /jobs/<id>/stream`` serves as NDJSON.
Endpoints:

==========================  =============================================
``POST /jobs``              submit (wire format, see :mod:`.wire`) -> 202
``GET /jobs``               job summaries, submission order
``GET /jobs/<id>``          full status, per-scenario results, event log
``GET /jobs/<id>/stream``   NDJSON event stream until the job finishes
``GET /jobs/<id>/trace``    every process's span records + live progress
``POST /jobs/<id>/cancel``  flag cancellation (queued: immediate)
``GET /healthz``            liveness + shared store statistics
``GET /metrics``            lock-consistent counters/gauges/percentiles
``POST /shutdown``          stop accepting, stop serving, exit cleanly
==========================  =============================================

Multi-tenant operation: every submission is attributed to the
``X-Repro-Client`` header (default ``anonymous``) and passes per-client
admission control — token-bucket rate plus max-in-flight quota — before
the registry ever sees it; a quota rejection is a 429 with a per-client
``Retry-After``.  Jobs carry a priority lane (``high``/``normal``/
``batch``, aged so low-priority work never starves) and an optional
end-to-end ``deadline_ms`` enforced at claim time and as a cap on the
solver budget; under sustained overload the lowest-effective-priority
queued jobs are shed (terminal ``shed``, resubmittable spec in the
event) instead of the service collapsing for everyone.

The server is stdlib :class:`http.server.ThreadingHTTPServer` — no new
dependencies; one handler thread per connection, solver work stays on
the service's workers.  The front end is hardened against rude
clients: request bodies are capped (413 beyond ``max_body_bytes``) and
every connection carries a socket timeout, so a client that connects
and never sends cannot pin a handler thread forever.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import queue as queue_module
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING

from dataclasses import replace as dataclass_replace

from .. import trace
from ..batch.queue import DEFAULT_AGING_INTERVAL, QueueFull, effective_priority
from .admission import AdmissionController, AdmissionDenied
from .jobs import (
    JOB_CANCELLED,
    JOB_DEADLINE,
    JOB_DONE,
    JOB_ERROR,
    JOB_SHED,
    LEASE_DEAD_LETTER,
    LEASE_PENDING,
    JobRegistry,
    ServiceJob,
)
from .metrics import LoopLatencyProbe, ServiceMetrics
from .wire import (
    TERMINAL_STATUSES,
    WIRE_FORMAT,
    JobSpec,
    WireError,
    parse_job,
)
from .worker import FleetConfig, worker_loop, worker_main

if TYPE_CHECKING:
    from ..dse.explorer import Explorer
    from ..dse.store import RunStore

#: Seconds of stream silence before a ``ping`` keepalive event is sent.
STREAM_HEARTBEAT = 10.0

#: Default request-body cap; a scenario batch is a few KiB, so 1 MiB is
#: already generous headroom rather than a limit anyone should hit.
MAX_BODY_BYTES = 1 << 20

#: Default per-socket-operation timeout for handler connections.
HANDLER_TIMEOUT = 30.0


class PayloadTooLarge(ValueError):
    """A request body beyond the server's cap (maps to HTTP 413)."""


class MappingService:
    """Job registry and supervisor over the service's workers.

    Every accepted job lands in one :class:`~repro.service.jobs.
    JobRegistry` — the client view and the lease state of the job in one
    record — and is dispatched by one :class:`Supervisor`: to ``workers``
    threads sharing this service's explorer, or, with ``fleet`` > 0, to
    that many spawned worker processes built from ``fleet_config``.  A
    fleet service holds no explorer (``explorer`` is ignored, and
    ``self.explorer`` is ``None``); its ``store`` is a handle on
    ``fleet_config``'s run store that it only reads.

    ``journal_path`` makes the registry persistent: every transition
    appends one line to a JSONL journal, on disk before the transition
    returns, that the next daemon pointed at the same path replays, so
    ``GET /jobs/<id>`` survives a restart and unfinished jobs run again.
    """

    def __init__(
        self,
        explorer: Explorer | None = None,
        workers: int = 1,
        max_finished_jobs: int = 512,
        journal_path: str | Path | None = None,
        fleet: int = 0,
        max_queue_depth: int | None = None,
        fleet_config: FleetConfig | None = None,
        admission: AdmissionController | None = None,
        shed_after: float | None = None,
        aging_interval: float = DEFAULT_AGING_INTERVAL,
        trace_dir: str | Path | None = None,
        trace_slow_span: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if fleet < 0:
            raise ValueError("fleet must be >= 0")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if shed_after is not None and shed_after <= 0:
            raise ValueError("shed_after must be > 0 (or None to disable)")
        self.metrics = ServiceMetrics()
        self.fleet = fleet
        self.max_queue_depth = max_queue_depth
        self.shed_after = shed_after
        self.aging_interval = aging_interval
        # The controller always exists: with no limits configured it is
        # still the per-client accounting that /metrics reports.
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.fleet_config = fleet_config if fleet_config is not None else FleetConfig()
        self.explorer: Explorer | None = None
        self._fleet_store: RunStore | None = None
        if fleet:
            # Fleet workers build their own solver stacks; the daemon only
            # dispatches, so it never imports one.  Its store handle only
            # reads what the workers append, for /healthz and /metrics.
            self._fleet_store = self.fleet_config.build_store()
        else:
            if explorer is None:
                from ..dse.explorer import Explorer

                # The default service still shares results across clients
                # inside one process: evaluations land in its memory store.
                explorer = Explorer()
            self.explorer = explorer
        # Tracing: one runtime for this process, its journal named after
        # the pid so restarts never contend over a file; fleet workers
        # inherit the directory through their config.
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self.trace_runtime: trace.TraceRuntime | None = None
        if self.trace_dir is not None:
            self.trace_runtime = trace.install(
                trace.TraceRuntime(
                    self.trace_dir,
                    f"daemon-{os.getpid()}",
                    slow_span_threshold=trace_slow_span,
                )
            )
            if self.fleet_config.trace_dir is None:
                self.fleet_config = dataclass_replace(
                    self.fleet_config,
                    trace_dir=str(self.trace_dir),
                    trace_slow_span=trace_slow_span,
                )
        self.registry = JobRegistry(
            max_finished=max_finished_jobs,
            journal=journal_path,
            observers=(self.metrics.job_event, self._admission_release),
            max_attempts=self.fleet_config.max_attempts,
            lease_ttl=self.fleet_config.lease_ttl,
            backoff_base=self.fleet_config.backoff_base,
            backoff_cap=self.fleet_config.backoff_cap,
            aging_interval=aging_interval,
        )
        self.workers = workers
        self._probe = LoopLatencyProbe(self.metrics)
        self._shed_stop = threading.Event()
        self._started = False
        self.supervisor = Supervisor(
            self,
            fleet or workers,
            self.fleet_config,
            explorer=self.explorer,
        )
        # Replayed-but-unfinished jobs were admitted by the previous
        # process; they still occupy their client's in-flight quota here.
        for job in self.registry.jobs():
            if not job.finished:
                self.admission.restore(job.spec.client)

    @property
    def store(self) -> RunStore:
        """The shared run store: the explorer's, or the fleet's read handle."""
        if self.explorer is not None:
            return self.explorer.store
        return self._fleet_store

    def _admission_release(self, record: dict) -> None:
        # Registry observer: every terminal transition frees one slot of
        # the submitter's in-flight quota.  The client id rides on the
        # journal record itself so this never re-enters the registry lock.
        if record.get("event") in TERMINAL_STATUSES:
            client = record.get("client")
            if isinstance(client, str) and client:
                self.admission.release(client)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up the supervisor, its workers and the probe; idempotent."""
        if self._started:
            return
        self._started = True
        self._probe.start()
        if self.shed_after is not None:
            shedder = threading.Thread(
                target=self._shed_loop, name="repro-service-shedder", daemon=True
            )
            shedder.start()
        self.supervisor.start()

    def stop(self, wait: bool = True) -> None:
        """Drain the workers, settle the backlog, close the journal.

        In-flight jobs get up to the configured ``drain_timeout`` to
        finish; the rest are re-queued without charging their retry
        budget.  Queued jobs stay queued for the next daemon when the
        journal will replay them, and finish ``cancelled`` otherwise: a
        202-accepted job must end terminal, not vanish with the process.
        """
        self._probe.stop()
        self._shed_stop.set()
        self.supervisor.stop(wait=wait)
        if self.registry.journal is None:
            for job in self.registry.jobs():
                if not job.finished:
                    self.registry.cancel(job.id)
        self.registry.close()
        # Release the process-global sink this service installed (closing
        # flushes its journal), so a later service's client-traced jobs
        # never journal into this one's directory.  A runtime another
        # install has since replaced was closed by that install.
        if self.trace_runtime is not None and trace.get_runtime() is self.trace_runtime:
            trace.uninstall()
        if self._fleet_store is not None:
            self._fleet_store.close()  # opened by this service

    # ------------------------------------------------------------------
    def _retry_after_hint(self, depth: int) -> float:
        """Seconds a 429'd client should wait before resubmitting.

        The honest estimate — p50 job duration times the backlog per
        worker — clamped to something a client can reasonably sleep.
        """
        histogram = self.metrics.snapshot()["latency"].get("job_duration")
        p50 = histogram["p50"] if histogram and histogram["count"] else 0.0
        lanes = max(1, self.fleet or self.workers)
        hint = p50 * math.ceil(depth / lanes) if p50 > 0 else 5.0
        return max(1.0, min(120.0, hint))

    def submit(self, spec: JobSpec) -> ServiceJob:
        """Register and enqueue one parsed submission.

        Admission control runs first — *before* ``registry.create`` —
        so a per-client quota rejection is a clean 429 with its own
        ``Retry-After``, never a half-registered job.  Raises
        :class:`~repro.service.admission.AdmissionDenied` (a
        :class:`~repro.batch.queue.QueueFull`) on quota, or plain
        ``QueueFull`` when the bounded global depth is reached.
        """
        try:
            self.admission.admit(spec.client)
        except AdmissionDenied as exc:
            self.metrics.inc("admission_throttled")
            if exc.retry_after is None:
                # In-flight rejections clear when a job finishes; the
                # backlog-based hint is the honest estimate of when.
                exc.retry_after = self._retry_after_hint(self.registry.depth())
            raise
        if self.max_queue_depth is not None:
            depth = self.registry.depth()
            if depth >= self.max_queue_depth:
                self.admission.release(spec.client)
                self.metrics.inc("backpressure_rejections")
                raise QueueFull(
                    f"queue depth {depth} is at the limit "
                    f"({self.max_queue_depth}); retry later",
                    retry_after=self._retry_after_hint(depth),
                )
        if self.trace_runtime is not None and spec.trace is None:
            # No inbound context: the accept point mints the trace root.
            spec = dataclass_replace(spec, trace=trace.mint_context().encode())
        # From here the in-flight charge is released by the terminal-
        # event observer — every path below ends terminal eventually.
        job = self.registry.create(spec)
        context = self._job_context(job)
        if context is not None:
            trace.event(
                "accepted",
                context,
                job=job.id,
                client=spec.client,
                priority=spec.priority,
                tier=spec.tier,
            )
        self.supervisor.wake()
        return job

    def cancel(self, job_id: str) -> ServiceJob | None:
        job = self.registry.cancel(job_id)
        if job is not None:
            self.supervisor.wake()  # reaches a running worker now
        return job

    # -- tracing -------------------------------------------------------
    def _job_context(self, job: ServiceJob) -> "trace.TraceContext | None":
        """The job's trace context, or ``None`` (inactive/malformed)."""
        if self.trace_runtime is None or job.spec.trace is None:
            return None
        try:
            return trace.parse_context(job.spec.trace)
        except ValueError:
            return None

    def _finish_trace(self, job: ServiceJob, status: str | None = None) -> None:
        """Seal a job's trace: root span, gauge cleanup, journal flush.

        The root span reuses the context's *own* span id, so every hop
        recorded against the context (queue, lease, solve) parents to it
        and ``repro trace`` renders one tree per job.  Passing the
        ``status`` a job is about to finish with seals the trace *before*
        the terminal event, so a client whose stream just ended finds
        the whole tree.
        """
        runtime = self.trace_runtime
        context = self._job_context(job)
        if runtime is None or context is None:
            return
        end = job.finished_at or time.time()
        runtime.record_span(
            trace.Span(
                trace_id=context.trace_id,
                span_id=context.span_id,
                name="job",
                start=job.submitted_at,
                duration=max(0.0, end - job.submitted_at),
                process=runtime.process,
                attrs={"job": job.id, "status": status or job.status},
            )
        )
        runtime.clear_progress(job.id)
        self.metrics.clear_solver_progress(job.id)
        runtime.flush()

    def trace_payload(self, job_id: str) -> dict | None:
        """The ``GET /jobs/<id>/trace`` body (``None`` -> 404).

        Reads every process's journal in the trace directory, each span
        once, from the process that recorded it: a running job's spans
        are visible as they land, and a dead worker's stay in its file.
        """
        job = self.registry.get(job_id)
        if job is None:
            return None
        records: list[dict] = []
        if self.trace_dir is not None and job.spec.trace is not None:
            if self.trace_runtime is not None:
                self.trace_runtime.flush()
            trace_id = job.spec.trace.partition(":")[0]
            records = trace.read_trace_dir(self.trace_dir, trace_id)
        return {
            "id": job.id,
            "status": job.status,
            "trace": job.spec.trace,
            "records": records,
            "progress": self.metrics.snapshot()["solver_progress"].get(job_id),
        }

    # -- overload shedding ---------------------------------------------
    def _shed_loop(self) -> None:
        while not self._shed_stop.wait(timeout=0.5):
            try:
                self.shed_overload()
            except Exception:  # shedding must never kill the daemon
                self.metrics.inc("shed_errors")

    def shed_overload(self, now: float | None = None) -> int:
        """Degrade gracefully under overload; returns jobs shed.

        When the oldest queued job has waited past ``shed_after``, the
        lowest-effective-priority half of the queued backlog (at least
        one job) is finished as :data:`~repro.service.jobs.JOB_SHED` —
        terminal, with the resubmittable wire spec embedded in the
        event — so fresh high-priority work keeps flowing instead of
        the whole service collapsing for everyone.  Runs on a
        maintenance thread; public and clock-injectable for tests.
        """
        if self.shed_after is None:
            return 0
        now = time.time() if now is None else now
        pending = self.registry.pending_snapshot()
        if not pending:
            return 0
        if max(now - job.submitted_at for job in pending) <= self.shed_after:
            return 0
        victims = sorted(
            pending,
            key=lambda job: effective_priority(
                job.spec.priority, now - job.submitted_at, self.aging_interval
            ),
            reverse=True,  # worst effective priority sheds first
        )[: max(1, len(pending) // 2)]
        for job in victims:
            self.registry.finish(
                job,
                JOB_SHED,
                error=(
                    "shed under overload after "
                    f"{now - job.submitted_at:.1f}s queued; resubmit"
                ),
                extra={"spec": job.spec.payload()},
            )
        return len(victims)

    def _store_entries(self) -> int | None:
        """Entries in the shared run store, as the workers see it.

        Fleet workers append through their own handles, so the daemon
        first reads the tail they appended since its last look; without
        a store path each worker keeps a private memory store the daemon
        cannot see (``None``).
        """
        if self.explorer is not None:
            return len(self.store)
        if self.store.path is None:
            return None
        return self.store.reload()

    def stats(self) -> dict:
        """The ``/healthz`` body: liveness plus shared-state counters."""
        store = self.store
        body = {
            "status": "ok",
            "format": WIRE_FORMAT,
            "workers": self.fleet or self.workers,
            "queued": self.registry.depth(),
            "jobs": self.registry.counts(),
            "store_entries": self._store_entries(),
            "store_path": str(store.path) if store.path is not None else None,
            "admission": self.admission.snapshot(),
            "lanes": self.registry.lane_snapshot(),
            "fleet": self.supervisor.snapshot(),
            "ledger": self.registry.lease_counts(),
        }
        if self.max_queue_depth is not None:
            body["max_queue_depth"] = self.max_queue_depth
        if self.shed_after is not None:
            body["shed_after"] = self.shed_after
        return body

    def metrics_payload(self) -> dict:
        """The ``GET /metrics`` body.

        Process-lifetime counters and histograms come from the
        :class:`ServiceMetrics` snapshot (one lock, so the scrape is
        self-consistent); live state — queue depth, per-state job
        counts, store entries, the workers holding a job
        (``solves_in_flight``) — is read from its owners under *their*
        locks at scrape time.  ``jobs.submitted`` covers every job this
        process accepted (replayed jobs belong to the old process and
        appear only in ``jobs.by_state``).
        """
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        fleet = self.supervisor.snapshot()
        body = {
            "status": "ok",
            "uptime": snapshot["uptime"],
            "workers": self.fleet or self.workers,
            "queue_depth": self.registry.depth(),
            "backpressure_rejections": counters.get("backpressure_rejections", 0),
            "admission": self.admission.snapshot(),
            "admission_throttled": counters.get("admission_throttled", 0),
            "lanes": self.registry.lane_snapshot(),
            "solves_in_flight": sum(1 for w in fleet["workers"] if w["job"]),
            "jobs": {
                "by_state": self.registry.counts(),
                "submitted": counters.get("jobs_submitted", 0),
                "started": counters.get("jobs_started", 0),
                "requeued": counters.get("jobs_requeued", 0),
                "finished": {
                    "total": counters.get("jobs_finished", 0),
                    "done": counters.get("jobs_done", 0),
                    "error": counters.get("jobs_error", 0),
                    "cancelled": counters.get("jobs_cancelled", 0),
                    "deadline": counters.get("jobs_deadline", 0),
                    "shed": counters.get("jobs_shed", 0),
                },
            },
            "scenarios": {
                "total": counters.get("scenarios_total", 0),
                "ok": counters.get("scenarios_ok", 0),
                "error": counters.get("scenarios_error", 0),
                "cached": counters.get("scenarios_cached", 0),
            },
            "solves": {"ilp_solves": counters.get("ilp_solves", 0)},
            "store_entries": self._store_entries(),
            "latency": snapshot["latency"],
            "solver_progress": snapshot["solver_progress"],
            "fleet": fleet,
            "ledger": self.registry.lease_counts(),
        }
        if self.trace_runtime is not None:
            body["trace"] = {
                "enabled": True,
                "dir": str(self.trace_dir),
                "slow_spans": self.trace_runtime.slow_spans,
                "slow_span_threshold": self.trace_runtime.slow_span_threshold,
            }
        return body


# ----------------------------------------------------------------------
class _WorkerHandle:
    """The supervisor's view of one worker, thread or process."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.name = f"worker-{index}"
        self.process = None  # a Process, or a Thread for in-process workers
        self.task_queue = None
        self.cancel_event = None
        self.pid: int | None = None
        self.ready = False
        self.job: str | None = None  # currently dispatched job id
        self.dispatched_at: float | None = None
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def is_thread(self) -> bool:
        return isinstance(self.process, threading.Thread)

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "pid": self.pid,
            "alive": self.alive,
            "ready": self.ready,
            "job": self.job,
            "restarts": self.restarts,
        }


class Supervisor:
    """Spawns, feeds and resurrects the service's workers.

    One background thread runs the whole control loop: drain worker
    messages, reap dead workers (respawning them), expire silent
    leases, propagate cancellations, dispatch claimable registry jobs to
    idle workers.  Every worker runs :func:`~repro.service.worker.
    worker_loop` and speaks the same message protocol.  With an
    ``explorer``, workers are threads sharing it; otherwise they are
    spawned processes (never forked — the daemon carries probe, shedder
    and handler threads) that own crash-safe state only, so ``kill -9`` on
    any of them costs one lease TTL, not data.  Each process imports and
    builds its own solver stack and announces ``ready`` only once that
    is loaded; the daemon never imports it, so at start-up the workers
    import in parallel while the daemon is already serving.
    :meth:`wake` (called on submit and cancel) ends the loop's idle wait
    so dispatch never waits out a poll tick.
    """

    #: Control-loop tick; also the message-drain poll timeout.
    POLL_INTERVAL = 0.05

    def __init__(
        self,
        service: MappingService,
        size: int,
        config: FleetConfig,
        explorer: Explorer | None = None,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.service = service
        self.registry = service.registry
        self.config = config
        self._explorer = explorer
        self._ctx = multiprocessing.get_context("spawn")
        self._result_queue = (
            queue_module.Queue() if explorer is not None else self._ctx.Queue()
        )
        self._handles = [_WorkerHandle(index) for index in range(size)]
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._draining = False
        self._thread: threading.Thread | None = None
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for handle in self._handles:
            self._spawn(handle)
        self._thread = threading.Thread(
            target=self._loop, name="repro-fleet-supervisor", daemon=True
        )
        self._thread.start()

    def wake(self) -> None:
        """End the control loop's idle wait (no-op before :meth:`start`)."""
        if self._thread is not None:
            self._result_queue.put({"type": "wake"})

    def stop(self, wait: bool = True, timeout: float | None = None) -> None:
        """Drain, then shut the workers down.

        Busy workers get up to ``drain_timeout`` to finish their leased
        job; whatever is still running is re-queued without charging its
        retry budget and told to stop at its next solve boundary.
        """
        timeout = self.config.drain_timeout if timeout is None else timeout
        with self._lock:
            self._draining = True
        if wait:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not any(handle.job for handle in self._handles):
                        break
                time.sleep(self.POLL_INTERVAL)
        self._stop_event.set()
        self.wake()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        with self._lock:
            for handle in self._handles:
                if handle.job is not None:
                    # The drain timed out on this one: hand the job back.
                    self.registry.requeue_for_restart(handle.job, "shutdown")
                    handle.job = None
                    handle.cancel_event.set()
                if handle.task_queue is not None:
                    try:
                        handle.task_queue.put(None)  # quit sentinel
                    except (OSError, ValueError):
                        pass
            for handle in self._handles:
                process = handle.process
                if process is None:
                    continue
                process.join(timeout=5.0)
                if handle.is_thread:
                    continue  # a daemon thread cannot be killed; it was told to stop
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - last resort
                    process.kill()
                    process.join(timeout=2.0)

    # -- workers -------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.ready = False
        handle.job = None
        if self._explorer is not None:
            # An in-process worker shares the daemon's explorer and trace
            # runtime, so it already sees every store write in this process.
            handle.task_queue = queue_module.Queue()
            handle.cancel_event = threading.Event()
            handle.process = threading.Thread(
                target=worker_loop,
                args=(
                    handle.name,
                    self._explorer,
                    handle.task_queue,
                    self._result_queue,
                    handle.cancel_event,
                ),
                kwargs={
                    "heartbeat_interval": self.config.heartbeat_interval,
                    "runtime": self.service.trace_runtime,
                    "reload_store": False,
                },
                name=f"repro-service-{handle.name}",
                daemon=True,
            )
            handle.process.start()
            return
        # Fresh queue + event per incarnation: a SIGKILLed worker can
        # leave its old queue's pipe in an unusable state.
        handle.task_queue = self._ctx.Queue()
        handle.cancel_event = self._ctx.Event()
        process = self._ctx.Process(
            target=worker_main,
            args=(
                handle.index,
                self.config,
                handle.task_queue,
                self._result_queue,
                handle.cancel_event,
            ),
            name=f"repro-fleet-{handle.name}",
            daemon=True,
        )
        process.start()
        handle.process = process
        handle.pid = process.pid

    def _handle_named(self, worker: str | None) -> _WorkerHandle | None:
        for handle in self._handles:
            if handle.name == worker:
                return handle
        return None

    # -- control loop --------------------------------------------------
    def _loop(self) -> None:
        while not self._stop_event.is_set():
            self._drain_messages()
            with self._lock:
                self._reap_dead()
                self._expire_leases()
                self._sweep_deadlines()
                self._propagate_cancels()
                self._dispatch()
        self._drain_messages(block=False)  # a last sweep so results beat shutdown

    def _drain_messages(self, block: bool = True) -> None:
        while True:
            try:
                message = self._result_queue.get(
                    timeout=self.POLL_INTERVAL if block else 0.0
                )
            except queue_module.Empty:
                return
            except (EOFError, OSError):  # queue torn down mid-shutdown
                return
            block = False
            try:
                self._handle_message(message)
            except Exception:
                # A corrupt message (a worker SIGKILLed mid-put) must
                # not kill the control loop; the lease machinery will
                # recover the job.
                self.service.metrics.inc("fleet_bad_messages")

    def _handle_message(self, message: dict) -> None:
        kind = message.get("type")
        if kind == "wake":
            return  # its only job was to end the idle wait
        worker = message.get("worker")
        job_id = message.get("job")
        with self._lock:
            handle = self._handle_named(worker)
            if kind == "ready":
                if handle is not None:
                    handle.ready = True
                    handle.pid = message.get("pid", handle.pid)
                return
            if kind == "heartbeat":
                self.registry.heartbeat(job_id)
                progress = message.get("progress")
                if isinstance(progress, dict) and isinstance(job_id, str):
                    # The worker's live solver progress (incumbent/bound/
                    # gap) surfaces through the daemon's /metrics gauge.
                    self.service.metrics.set_solver_progress(job_id, progress)
                return
            if kind == "started":
                job = self.registry.get(job_id)
                if job is not None and not self.registry.start(job):
                    # A cancel won the race: tell the worker to bail at
                    # the next solve boundary.
                    if handle is not None and handle.cancel_event is not None:
                        handle.cancel_event.set()
                return
            if kind == "result":
                self._finish_job(
                    handle,
                    job_id,
                    message.get("results") or [],
                    bool(message.get("cancelled")),
                )
                return
            if kind == "failed":
                if handle is not None and handle.job == job_id:
                    self._observe_duration(handle)
                    handle.job = None
                self._attempt_failed(job_id, str(message.get("error")))
                return
            if kind == "deadline":
                # The deadline lapsed between claim and pickup: the
                # worker declined without touching its mapper.
                if handle is not None and handle.job == job_id:
                    self._observe_duration(handle)
                    handle.job = None
                job = self.registry.get(job_id)
                if job is not None and not job.finished:
                    self.service._finish_trace(job, JOB_DEADLINE)
                    self.registry.finish(
                        job, JOB_DEADLINE, error="deadline exceeded before solve"
                    )
                return
            self.service.metrics.inc("fleet_bad_messages")

    def _observe_duration(self, handle: _WorkerHandle) -> None:
        if handle.dispatched_at is not None:
            self.service.metrics.observe(
                "job_duration", time.monotonic() - handle.dispatched_at
            )
            handle.dispatched_at = None

    def _finish_job(
        self,
        handle: _WorkerHandle | None,
        job_id: str,
        results: list[dict],
        worker_cancelled: bool,
    ) -> None:
        registry = self.registry
        lease_duration = None
        lease_worker = None
        if handle is not None and handle.job == job_id:
            if handle.dispatched_at is not None:
                lease_duration = time.monotonic() - handle.dispatched_at
                lease_worker = handle.name
            self._observe_duration(handle)
            handle.job = None
        job = registry.get(job_id)
        if job is None or job.finished:
            # A cancel (or shed) landed while the result was in transit.
            return
        context = self.service._job_context(job)
        if context is not None and lease_duration is not None:
            # The lease span is reconstructed supervisor-side: dispatch to
            # result, the interval the worker held the job.
            trace.record_span(
                "lease",
                context,
                start=time.time() - lease_duration,
                duration=lease_duration,
                job=job_id,
                worker=lease_worker,
            )
        for result in results:
            registry.add_result(job, result)
        failed = [r for r in results if r.get("status") != "ok"]
        error = None
        if worker_cancelled or job.token.cancelled:
            status = JOB_CANCELLED
        elif failed:
            # Deterministic per-scenario failures (construction errors,
            # infeasible instances) are answers, not crashes: they finish
            # the job instead of burning retries.
            status, error = JOB_ERROR, f"{len(failed)} scenario(s) failed"
        else:
            status = JOB_DONE
        self.service._finish_trace(job, status)
        registry.finish(job, status, error=error)

    def _attempt_failed(self, job_id: str, error: str) -> None:
        state = self.registry.fail_attempt(job_id, error)
        job = self.registry.get(job_id)
        if state == LEASE_DEAD_LETTER:
            self.service._finish_trace(job)
        elif state == LEASE_PENDING:
            context = self.service._job_context(job)
            if context is not None:
                trace.event("requeued", context, job=job_id, reason=error)

    def _reap_dead(self) -> None:
        for handle in self._handles:
            process = handle.process
            if process is None or process.is_alive():
                continue
            exitcode = getattr(process, "exitcode", None)
            handle.process = None
            handle.ready = False
            job_id, handle.job = handle.job, None
            if job_id is not None:
                self._observe_duration(handle)
                self._attempt_failed(
                    job_id, f"worker died mid-job (exit {exitcode})"
                )
            if not self._draining and not self._stop_event.is_set():
                handle.restarts += 1
                self.service.metrics.inc("worker_restarts")
                self._spawn(handle)

    def _expire_leases(self) -> None:
        for job in self.registry.expired():
            holder = None
            for handle in self._handles:
                if handle.job == job.id:
                    holder = handle
                    break
            if holder is not None and holder.is_thread:
                # A live thread cannot fall silent: its heartbeats share
                # this process, so a lapse is a stall here, not a lost
                # worker (a dead thread is reaped like a dead process).
                self.registry.heartbeat(job.id)
                continue
            if holder is not None:
                # Alive but silent: hung solver, stuck disk, whatever —
                # the lease is the contract, so the worker is killed and
                # respawned by the next reap pass.
                holder.job = None
                if holder.process is not None and holder.process.is_alive():
                    holder.process.terminate()
            self._attempt_failed(job.id, "lease expired (missed heartbeats)")

    def _sweep_deadlines(self, now: float | None = None) -> None:
        # Pending jobs past their deadline finish as JOB_DEADLINE without
        # ever being leased: zero mapper invocations, zero retry charge.
        self.registry.deadline_expired(now)

    def _propagate_cancels(self) -> None:
        for handle in self._handles:
            if handle.job is None or handle.cancel_event is None:
                continue
            job = self.registry.get(handle.job)
            if (
                job is not None
                and job.token.cancelled
                and not handle.cancel_event.is_set()
            ):
                handle.cancel_event.set()

    def _dispatch(self) -> None:
        if self._draining:
            return
        for handle in self._handles:
            if not (handle.ready and handle.alive and handle.job is None):
                continue
            job = self.registry.claim(handle.name)
            if job is None:
                return
            handle.cancel_event.clear()
            handle.job = job.id
            handle.dispatched_at = time.monotonic()
            waited = max(0.0, time.time() - job.submitted_at)
            self.service.metrics.observe("queue_wait", waited)
            self.service.metrics.observe(f"queue_wait_{job.spec.priority}", waited)
            context = self.service._job_context(job)
            if context is not None:
                # Queue wait: submission to claim.
                trace.record_span(
                    "queue",
                    context,
                    start=job.submitted_at,
                    duration=waited,
                    job=job.id,
                    priority=job.spec.priority,
                    worker=handle.name,
                )
            try:
                handle.task_queue.put(
                    {
                        "job": job.id,
                        "spec": job.spec.payload(),
                        "deadline_at": job.deadline_at,
                        "trace": job.spec.trace,
                    }
                )
            except (OSError, ValueError):
                # The worker's pipe is broken (it just died); the reap
                # pass will fail the attempt and respawn.
                pass

    # -- inspection ----------------------------------------------------
    def snapshot(self) -> dict:
        """The ``/healthz``/``/metrics`` fleet section."""
        with self._lock:
            return {
                "size": len(self._handles),
                "draining": self._draining,
                "workers": [handle.snapshot() for handle in self._handles],
                "worker_restarts": sum(h.restarts for h in self._handles),
            }


# ----------------------------------------------------------------------
class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`MappingService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: MappingService,
        max_body_bytes: int = MAX_BODY_BYTES,
        handler_timeout: float | None = HANDLER_TIMEOUT,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.max_body_bytes = max_body_bytes
        self.handler_timeout = handler_timeout


class _Handler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    # Quiet by default: the daemon is long-lived and per-request lines
    # belong to the operator's access log, not stderr.
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass

    def setup(self) -> None:
        # The per-server socket timeout: http.server applies self.timeout
        # in setup(), and handle_one_request() treats a timed-out read as
        # close_connection — so a client that connects and never sends
        # releases its handler thread instead of pinning it forever.
        self.timeout = self.server.handler_timeout
        super().setup()

    @property
    def service(self) -> MappingService:
        return self.server.service

    # -- plumbing ------------------------------------------------------
    def _send_json(
        self, payload: dict, status: int = 200, headers: dict | None = None
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json(self) -> object:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise WireError("Content-Length is not an integer") from None
        if length < 0:
            raise WireError("Content-Length is negative")
        if length > self.server.max_body_bytes:
            # Reject on the *declared* size, before reading a byte: an
            # unbounded read here would hand memory to any rude client.
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise WireError("empty request body (expected JSON)")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise WireError(f"request body is not valid JSON: {exc}") from None

    def _job_or_404(self, job_id: str) -> ServiceJob | None:
        job = self.service.registry.get(job_id)
        if job is None:
            self._send_error_json(404, f"no such job {job_id!r}")
        return job

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if not parts:
            self._send_json(
                {
                    "service": "repro-mapping-service",
                    "format": WIRE_FORMAT,
                    "endpoints": [
                        "POST /jobs",
                        "GET /jobs",
                        "GET /jobs/<id>",
                        "GET /jobs/<id>/stream",
                        "GET /jobs/<id>/trace",
                        "POST /jobs/<id>/cancel",
                        "GET /healthz",
                        "GET /metrics",
                        "POST /shutdown",
                    ],
                }
            )
        elif parts == ["healthz"]:
            self._send_json(self.service.stats())
        elif parts == ["metrics"]:
            self._send_json(self.service.metrics_payload())
        elif parts == ["jobs"]:
            self._send_json(
                {"jobs": [job.summary() for job in self.service.registry.jobs()]}
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._send_json(job.detail())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
            job = self._job_or_404(parts[1])
            if job is not None:
                self._stream(job)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "trace":
            payload = self.service.trace_payload(parts[1])
            if payload is None:
                self._send_error_json(404, f"no such job {parts[1]!r}")
            else:
                self._send_json(payload)
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        parts = [p for p in path.split("/") if p]
        if parts == ["jobs"]:
            try:
                spec = parse_job(self._read_json())
                header = self.headers.get("X-Repro-Client")
                if header:
                    # The header wins over a body `client` key; replace()
                    # re-runs validation, so a bad header is still a 400.
                    spec = dataclass_replace(spec, client=header.strip())
                trace_header = self.headers.get(trace.TRACE_HEADER)
                if trace_header:
                    # Same contract as the client header: the caller's
                    # context wins, and a malformed one is a 400.
                    spec = dataclass_replace(spec, trace=trace_header.strip())
            except PayloadTooLarge as exc:
                self._send_error_json(413, str(exc))
                return
            except WireError as exc:
                self._send_error_json(400, str(exc))
                return
            try:
                job = self.service.submit(spec)
            except QueueFull as exc:
                # Backpressure, not failure: the client is told exactly
                # when the backlog should have room again.
                retry_after = max(1, math.ceil(exc.retry_after or 1.0))
                self._send_json(
                    {"error": str(exc), "retry_after": retry_after},
                    status=429,
                    headers={"Retry-After": str(retry_after)},
                )
                return
            self._send_json({**job.summary(), "stream": f"/jobs/{job.id}/stream"}, 202)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            job = self.service.cancel(parts[1])
            if job is None:
                self._send_error_json(404, f"no such job {parts[1]!r}")
            else:
                self._send_json(job.summary())
        elif parts == ["shutdown"]:
            self._send_json({"status": "shutting-down"})
            # shutdown() blocks until serve_forever exits, so it must run
            # off the handler thread; the serve loop then stops workers.
            threading.Thread(target=self.server.shutdown, daemon=True).start()
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    # -- streaming -----------------------------------------------------
    def _stream(self, job: ServiceJob) -> None:
        """NDJSON event stream: replay, then follow until terminal."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        index = 0
        last_write = time.monotonic()
        registry = self.service.registry
        try:
            while True:
                events, index, drained = registry.events_since(job, index, timeout=0.5)
                for event in events:
                    self.wfile.write(
                        json.dumps(event, sort_keys=True).encode("utf-8") + b"\n"
                    )
                if events:
                    self.wfile.flush()
                    last_write = time.monotonic()
                if drained:
                    return
                if time.monotonic() - last_write > STREAM_HEARTBEAT:
                    # Keep idle streams alive through client read timeouts
                    # and proxies while a long solve produces no events.
                    self.wfile.write(b'{"event":"ping"}\n')
                    self.wfile.flush()
                    last_write = time.monotonic()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; the job keeps running


# ----------------------------------------------------------------------
def make_server(
    service: MappingService,
    host: str = "127.0.0.1",
    port: int = 8100,
    max_body_bytes: int = MAX_BODY_BYTES,
    handler_timeout: float | None = HANDLER_TIMEOUT,
) -> ServiceHTTPServer:
    """Bind (but do not run) the HTTP front end; ``port=0`` picks a free one."""
    return ServiceHTTPServer(
        (host, port),
        service,
        max_body_bytes=max_body_bytes,
        handler_timeout=handler_timeout,
    )


def run_server(
    service: MappingService,
    server: ServiceHTTPServer,
) -> None:
    """Serve until ``POST /shutdown`` (or Ctrl-C), then stop the workers."""
    service.start()
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop(wait=True)
