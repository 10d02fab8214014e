"""The service's one job table: client view, lease state, one journal.

A :class:`ServiceJob` is one accepted submission moving through
``queued -> running -> done | error | cancelled | deadline | shed``.
Every client-visible state change and per-scenario result is appended
to the job's **event log**, which is simultaneously:

- the NDJSON stream body of ``GET /jobs/<id>/stream`` (replay past
  events, then follow live ones), and
- the audit trail embedded in ``GET /jobs/<id>``.

The same record carries the job's **lease** — the workers' view.  A
queued job is *pending* until a worker claims it under a TTL lease,
renewed by heartbeat while it solves::

    PENDING --claim--> LEASED --finish--> FINISHED
       ^                  |
       |    fail/expiry   +--fail_attempt--> PENDING (backoff)
       +------------------+                    |
                                               v  after max_attempts
                                          DEAD_LETTER

If the worker dies, the lease expires and the job is re-queued with
exponential backoff, bounded by ``max_attempts``; a daemon restart
re-queues leased jobs immediately *without* charging the retry budget.

The registry owns one :class:`threading.Condition`: every transition
runs under it, and stream readers block in
:meth:`JobRegistry.events_since` until the next event.  With a
``journal`` path, every transition also appends one JSONL record, and a
new registry pointed at the same file replays it in one pass.  Records
are buffered under the condition and written, in order, by the
transition's own thread after it releases the condition, so each
call's line is on disk before the call returns and a 202-accepted id is
*always* answerable.  Heartbeats renew the lease in memory only: replay
clears every unfinished job's lease anyway.  Jobs that were terminal
before a restart come back exactly as they finished; jobs the old
process accepted but never finished come back ``queued`` and run again.
"""

from __future__ import annotations

import itertools
import re
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from .. import jsonlio
from ..batch.queue import (
    DEFAULT_AGING_INTERVAL,
    PRIORITIES,
    CancelToken,
    effective_priority,
)
from .metrics import EventObserver
from .wire import TERMINAL_STATUSES, JobSpec, WireError, parse_job

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_ERROR = "error"
JOB_CANCELLED = "cancelled"
#: Terminal: the job's end-to-end deadline passed before (or while) it ran.
JOB_DEADLINE = "deadline"
#: Terminal: the daemon shed this queued job under overload.
JOB_SHED = "shed"

#: States a job never leaves (the wire module's client-visible list).
TERMINAL_STATES = TERMINAL_STATUSES

#: Lease states (the ``/healthz`` ``ledger.by_state`` keys).
LEASE_PENDING = "pending"
LEASE_LEASED = "leased"
LEASE_FINISHED = "finished"
LEASE_DEAD_LETTER = "dead_letter"

#: Bump when the journal record schema changes; stale lines are skipped.
JOURNAL_FORMAT = 2

#: The ``requeued`` reason of a job a daemon restart interrupted mid-run.
RESTART_REASON = "daemon restarted"

#: Journal record keys that are not part of the client-visible event.
_JOURNAL_ONLY = frozenset(
    ("format", "job", "client", "attempt", "not_before", "last_error", "dead_letter")
)

_ID_PATTERN = re.compile(r"^job-(\d+)-[0-9a-f]+$")


@dataclass
class ServiceJob:
    """One submission's full lifecycle, owned by the registry."""

    id: str
    spec: JobSpec
    token: CancelToken = field(default_factory=CancelToken)
    status: str = JOB_QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    results: list[dict] = field(default_factory=list)
    error: str | None = None
    events: list[dict] = field(default_factory=list)
    # -- lease state ----------------------------------------------------
    attempts: int = 0  # leases granted (claims), including the active one
    not_before: float = 0.0  # backoff gate: claimable once now >= this
    worker: str | None = None  # current lease holder
    lease_expires: float | None = None
    last_error: str | None = None  # the latest failed attempt's error
    dead_letter: bool = False  # terminal because the retry budget ran out

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def pending(self) -> bool:
        """Queued and unleased: a worker may claim it."""
        return self.status == JOB_QUEUED and self.worker is None

    @property
    def lease_state(self) -> str:
        if self.finished:
            return LEASE_DEAD_LETTER if self.dead_letter else LEASE_FINISHED
        return LEASE_PENDING if self.pending else LEASE_LEASED

    @property
    def deadline_at(self) -> float | None:
        """Absolute end-to-end deadline (epoch seconds), if the spec set one."""
        if self.spec.deadline_ms is None:
            return None
        return self.submitted_at + self.spec.deadline_ms / 1000.0

    @property
    def ok(self) -> bool:
        return self.status == JOB_DONE and all(
            result.get("status") == "ok" for result in self.results
        )

    def summary(self) -> dict:
        """The compact view returned by ``GET /jobs``/submission replies."""
        return {
            "id": self.id,
            "status": self.status,
            "tier": self.spec.tier,
            "priority": self.spec.priority,
            "client": self.spec.client,
            "scenarios": len(self.spec.scenarios),
            "results": len(self.results),
            "submitted_at": self.submitted_at,
            "error": self.error,
            "trace": self.spec.trace,
        }

    def detail(self) -> dict:
        """The full view returned by ``GET /jobs/<id>``."""
        return {
            **self.summary(),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "deadline_at": self.deadline_at,
            "results": list(self.results),
            "events": list(self.events),
        }


class JobRegistry:
    """Thread-safe id -> :class:`ServiceJob` table with an event feed.

    ``max_finished`` bounds how many *terminal* jobs stay queryable: the
    oldest-finished are forgotten first (the journal keeps them), and
    queued or running jobs never are, so the table stays bounded by the
    backlog plus ``max_finished``.  (Evaluation answers outlive the
    eviction — they live in the shared run store.)  The lease settings —
    ``max_attempts``, ``lease_ttl``, the backoff and ``aging_interval`` —
    govern :meth:`claim` and :meth:`fail_attempt`.  All public methods
    take the condition; callers never hold it.  :meth:`close` releases
    the journal; later transitions still run but journal nothing.
    """

    def __init__(
        self,
        max_finished: int = 512,
        journal: str | Path | None = None,
        observers: tuple[EventObserver, ...] = (),
        *,
        max_attempts: int = 3,
        lease_ttl: float = 15.0,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        aging_interval: float = DEFAULT_AGING_INTERVAL,
    ) -> None:
        if max_finished < 1:
            raise ValueError("max_finished must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        if aging_interval <= 0:
            raise ValueError("aging_interval must be > 0")
        self.max_attempts = max_attempts
        self.lease_ttl = lease_ttl
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.aging_interval = aging_interval
        self._jobs: dict[str, ServiceJob] = {}
        #: Unfinished jobs in submission order (the FIFO tie-break).
        self._open: dict[str, ServiceJob] = {}
        #: Terminal job ids, oldest-finished first (the retention queue).
        self._retired: deque[str] = deque()
        self._cond = threading.Condition()
        self._counter = itertools.count(1)
        self._max_finished = max_finished
        self._observers = tuple(observers)
        self._replay_skipped = 0
        self._lease_counters = {
            "leases_granted": 0,
            "leases_expired": 0,
            "requeues": 0,
            "dead_letters": 0,
            "deadline_expired": 0,
        }
        self.journal = Path(journal) if journal is not None else None
        #: Records appended under the condition, not yet on disk.
        self._unwritten: list[dict] = []
        #: Serialises journal writes so lines land in transition order.
        self._write_lock = threading.Lock()
        self._handle: IO[bytes] | None = None
        self._closed = False
        if self.journal is not None:
            self._replay(self.journal)

    # -- client transitions ---------------------------------------------
    def create(self, spec: JobSpec) -> ServiceJob:
        """Register a new queued job (ids are unguessable but ordered)."""
        with self._cond:
            job_id = f"job-{next(self._counter):06d}-{secrets.token_hex(3)}"
            job = ServiceJob(id=job_id, spec=spec)
            self._jobs[job_id] = self._open[job_id] = job
            self._append_event(job, {"event": JOB_QUEUED, "id": job_id})
        self._sync()
        return job

    def get(self, job_id: str) -> ServiceJob | None:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[ServiceJob]:
        """Registered jobs in submission order."""
        with self._cond:
            return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        with self._cond:
            counts: dict[str, int] = {}
            for job in self._jobs.values():
                counts[job.status] = counts.get(job.status, 0) + 1
            return counts

    def start(self, job: ServiceJob) -> bool:
        """Move a queued job to running; false if a cancel won the race.

        A ``POST /jobs/<id>/cancel`` landing between the worker's claim
        and this call already moved the job to a terminal state — it
        must not be resurrected (its streams saw a terminal event and
        closed).
        """
        with self._cond:
            if job.finished:
                return False
            job.status = JOB_RUNNING
            job.started_at = time.time()
            self._append_event(job, {"event": JOB_RUNNING})
        self._sync()
        return True

    def add_result(self, job: ServiceJob, result: dict) -> None:
        with self._cond:
            job.results.append(result)
            self._append_event(job, {"event": "result", **result})
        self._sync()

    def finish(
        self,
        job: ServiceJob,
        status: str,
        error: str | None = None,
        extra: dict | None = None,
    ) -> None:
        """Move a job to a terminal state (idempotent for cancellations).

        ``extra`` merges additional keys into the terminal event — the
        shed path uses it to embed the resubmittable wire spec so a
        caller watching the stream can resubmit verbatim.
        """
        with self._cond:
            if job.finished:
                return
            self._terminate(job, status, error, extra)
        self._sync()

    def cancel(self, job_id: str) -> ServiceJob | None:
        """Flag a job for cancellation; queued jobs terminate right away.

        A *running* job only gets its token set here — the worker
        observes it at the next scenario/solve boundary and moves the job
        to ``cancelled`` itself (with however many results completed).
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            job.token.cancel()
            if job.status != JOB_QUEUED:
                return job
            self._terminate(job, JOB_CANCELLED)
        self._sync()
        return job

    # -- lease transitions ----------------------------------------------
    def claim(self, worker: str, now: float | None = None) -> ServiceJob | None:
        """Lease the best claimable pending job to ``worker``.

        Claimable pending jobs (backoff gate passed, deadline not blown)
        are ranked by :func:`~repro.batch.queue.effective_priority` —
        lane rank minus age credit — with submission order breaking
        ties, so ``high`` work runs first but a starved ``batch`` job
        ages its way to the front.  Deadline-expired pending jobs are
        *skipped*, not claimed: :meth:`deadline_expired` sweeps them to a
        terminal state without ever charging a lease against their retry
        budget.  ``None`` when nothing is claimable.
        """
        now = time.time() if now is None else now
        with self._cond:
            best: ServiceJob | None = None
            best_score = 0.0
            for job in self._open.values():  # submission order == FIFO tie-break
                if not job.pending or job.not_before > now:
                    continue
                deadline_at = job.deadline_at
                if deadline_at is not None and deadline_at <= now:
                    continue  # deadline sweep's business, not a lease
                score = effective_priority(
                    job.spec.priority, now - job.submitted_at, self.aging_interval
                )
                if best is None or score < best_score:
                    best, best_score = job, score
            if best is None:
                return None
            best.worker = worker
            best.attempts += 1
            best.lease_expires = now + self.lease_ttl
            self._lease_counters["leases_granted"] += 1
            if self.journal is not None:
                # Lease bookkeeping no client sees: journaled for replay,
                # never put on the event stream or to observers.
                self._unwritten.append(
                    {
                        "format": JOURNAL_FORMAT,
                        "ts": time.time(),
                        "job": best.id,
                        "event": "leased",
                        "worker": worker,
                        "attempt": best.attempts,
                        "expires": best.lease_expires,
                    }
                )
        self._sync()
        return best

    def heartbeat(self, job_id: str, now: float | None = None) -> bool:
        """Renew a lease; false if the job is no longer leased (stale).

        Not journaled: replay clears the lease of every unfinished job,
        so a renewal line would never be read.
        """
        now = time.time() if now is None else now
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.lease_state != LEASE_LEASED:
                return False
            job.lease_expires = now + self.lease_ttl
            return True

    def fail_attempt(
        self, job_id: str, error: str, now: float | None = None
    ) -> str | None:
        """One attempt failed (worker died, crashed, or its lease expired).

        Returns the job's new lease state — re-queued with exponential
        backoff (a client-visible ``requeued`` event), or ``dead_letter``
        once the retry budget (``max_attempts``) is spent, which finishes
        the job as ``error``.  ``None`` if the job is unknown or already
        terminal: a cancel that raced the failure wins.
        """
        now = time.time() if now is None else now
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return None
            job.last_error = error
            if job.attempts >= self.max_attempts:
                job.dead_letter = True
                self._lease_counters["dead_letters"] += 1
                self._terminate(
                    job,
                    JOB_ERROR,
                    f"dead-letter after {job.attempts} attempt(s): {error}",
                    lease={"dead_letter": True, "last_error": error},
                )
                state = LEASE_DEAD_LETTER
            else:
                backoff = min(
                    self.backoff_cap,
                    self.backoff_base * (2 ** max(0, job.attempts - 1)),
                )
                job.not_before = now + backoff
                self._lease_counters["requeues"] += 1
                self._requeue(job, error, last_error=error)
                state = LEASE_PENDING
        self._sync()
        return state

    def requeue_for_restart(self, job_id: str, reason: str = "shutdown") -> bool:
        """Re-queue a leased job without charging its retry budget.

        The drain path: the daemon is going away, not the job — the
        in-flight attempt is refunded so the next process retries it
        immediately.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.lease_state != LEASE_LEASED:
                return False
            job.not_before = 0.0
            job.attempts = max(0, job.attempts - 1)
            self._requeue(job, reason)
        self._sync()
        return True

    def expired(self, now: float | None = None) -> list[ServiceJob]:
        """Leased jobs whose TTL has lapsed (missed heartbeats).

        Read-only: the supervisor decides what expiry means (kill the
        worker, then :meth:`fail_attempt`).  Each expiry is counted once
        here; the job's ``lease_expires`` is cleared so a slow
        supervisor loop doesn't double-count it.
        """
        now = time.time() if now is None else now
        with self._cond:
            lapsed = []
            for job in self._open.values():
                if (
                    job.worker is not None
                    and job.lease_expires is not None
                    and job.lease_expires < now
                ):
                    job.lease_expires = None
                    self._lease_counters["leases_expired"] += 1
                    lapsed.append(job)
            return lapsed

    def deadline_expired(self, now: float | None = None) -> list[ServiceJob]:
        """Finish pending jobs whose end-to-end deadline has passed.

        A job past its deadline when it *would* be claimed fails fast:
        it finishes ``deadline`` — never leased, so zero mapper
        invocations and zero retry-budget charge.  Returns the swept
        jobs.
        """
        now = time.time() if now is None else now
        with self._cond:
            swept = []
            for job in list(self._open.values()):
                deadline_at = job.deadline_at
                if job.pending and deadline_at is not None and deadline_at <= now:
                    self._terminate(job, JOB_DEADLINE, "deadline exceeded before start")
                    self._lease_counters["deadline_expired"] += 1
                    swept.append(job)
        if swept:
            self._sync()
        return swept

    # -- inspection -----------------------------------------------------
    def depth(self) -> int:
        """Jobs still owed work (pending + leased)."""
        with self._cond:
            return len(self._open)

    def pending_snapshot(self) -> list[ServiceJob]:
        """Pending jobs (shed picker input); callers must not mutate."""
        with self._cond:
            return [job for job in self._open.values() if job.pending]

    def dead_letters(self) -> list[ServiceJob]:
        with self._cond:
            return [job for job in self._jobs.values() if job.dead_letter]

    def lane_snapshot(self, now: float | None = None) -> dict[str, dict]:
        """Per-lane pending depth and oldest wait, for ``/metrics``."""
        now = time.time() if now is None else now
        with self._cond:
            body: dict[str, dict] = {
                lane: {"depth": 0, "oldest_wait": None} for lane in PRIORITIES
            }
            for job in self._open.values():
                if not job.pending:
                    continue
                lane = body[job.spec.priority]
                lane["depth"] += 1
                waited = now - job.submitted_at
                if lane["oldest_wait"] is None or waited > lane["oldest_wait"]:
                    lane["oldest_wait"] = waited
            return body

    def lease_counts(self) -> dict:
        """Per-lease-state totals plus this process's lease counters."""
        with self._cond:
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                state = job.lease_state
                by_state[state] = by_state.get(state, 0) + 1
            return {"by_state": by_state, **self._lease_counters}

    def events_since(
        self, job: ServiceJob, index: int, timeout: float = 1.0
    ) -> tuple[list[dict], int, bool]:
        """Events after ``index`` for a stream reader.

        Blocks up to ``timeout`` for fresh events; returns
        ``(new_events, next_index, drained)`` where ``drained`` means the
        job is terminal *and* everything has been delivered — the
        stream's end-of-body condition.
        """
        with self._cond:
            if len(job.events) <= index and not job.finished:
                self._cond.wait(timeout=timeout)
            new_events = job.events[index:]
            next_index = index + len(new_events)
            drained = job.finished and next_index == len(job.events)
            return new_events, next_index, drained

    # -- internals (caller holds the condition) -------------------------
    def _terminate(
        self,
        job: ServiceJob,
        status: str,
        error: str | None = None,
        extra: dict | None = None,
        lease: dict | None = None,
    ) -> None:
        job.status = status
        job.error = error
        job.finished_at = time.time()
        job.worker = None
        job.lease_expires = None
        event: dict = {"event": status, "results": len(job.results)}
        if error is not None:
            event["error"] = error
        if extra:
            event.update(extra)
        self._append_event(job, event, lease)
        self._retire(job)

    def _retire(self, job: ServiceJob) -> None:
        # Terminal jobs leave the scan index and join the retention
        # queue; the oldest-finished beyond the cap are dropped from the
        # table (live references, e.g. an open stream's, keep working).
        self._open.pop(job.id, None)
        self._retired.append(job.id)
        while len(self._retired) > self._max_finished:
            self._jobs.pop(self._retired.popleft(), None)

    def _requeue(
        self,
        job: ServiceJob,
        reason: str,
        last_error: str | None = None,
        notify_observers: bool = True,
    ) -> None:
        # The retry starts from scratch: partial results of the dead
        # attempt would double up against the re-run's.
        job.status = JOB_QUEUED
        job.results = []
        job.started_at = None
        job.worker = None
        job.lease_expires = None
        lease: dict = {"attempt": job.attempts, "not_before": job.not_before}
        if last_error is not None:
            lease["last_error"] = last_error
        self._append_event(
            job,
            {"event": "requeued", "reason": reason},
            lease,
            notify_observers,
        )

    def _append_event(
        self,
        job: ServiceJob,
        event: dict,
        lease: dict | None = None,
        notify_observers: bool = True,
    ) -> None:
        # The journal record is only buffered here and observers are
        # counter bumps, so no disk I/O happens under the condition; every
        # transition calls _sync after releasing it.
        entry = {"ts": time.time(), **event}
        job.events.append(entry)
        self._cond.notify_all()
        # The record (journal + observers) carries the client id so the
        # admission controller can release quotas without re-entering
        # the registry lock, and the lease keys so replay restores the
        # workers' view; the in-memory event stream stays client-shaped.
        record = {
            "format": JOURNAL_FORMAT,
            "job": job.id,
            "client": job.spec.client,
            **entry,
        }
        if lease:
            record.update(lease)
        if event["event"] == JOB_QUEUED:
            # The queued record carries everything needed to rebuild the
            # job on replay: the wire-format submission body.
            record["spec"] = job.spec.payload()
        if self.journal is not None:
            self._unwritten.append(record)
        if notify_observers:
            for observer in self._observers:
                observer(record)

    def _sync(self) -> None:
        # Write every buffered record, in transition order.  Runs after
        # the condition is released, so readers never wait on disk; the
        # write lock makes a caller whose record another thread took wait
        # until that thread's write is done.  Disk trouble never fails a
        # transition, and a closed journal drops the records.
        if self.journal is None:
            return
        with self._write_lock:
            with self._cond:
                records, self._unwritten = self._unwritten, []
            if not records or self._closed:
                return
            try:
                if self._handle is None:
                    self._handle = jsonlio.open_append(self.journal)
                jsonlio.append_records(
                    self._handle, b"".join(map(jsonlio.dump_line, records))
                )
            except OSError:
                pass

    def close(self) -> None:
        """Release the journal; later transitions journal nothing."""
        with self._write_lock:
            self._closed = True
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    # -- replay ---------------------------------------------------------
    @property
    def replay_skipped(self) -> int:
        """Journal records dropped during replay (torn/stale/orphaned)."""
        return self._replay_skipped

    def _replay(self, path) -> None:
        """Rebuild the table from a journal left behind by an earlier process.

        Replayed transitions do **not** fire observers — process
        counters describe *this* process's work.  A job the old process
        left leased comes back pending with its attempt refunded (the
        process died, not the job); one it left mid-run also gets a
        journaled ``requeued`` event, so a second restart replays it
        queued without adding another record.
        """
        max_counter = 0
        replayed: dict[str, ServiceJob] = {}
        retired: list[str] = []
        for record in jsonlio.read_jsonl(path):
            if record.get("format") != JOURNAL_FORMAT:
                self._replay_skipped += 1
                continue
            job_id = record.get("job")
            event = record.get("event")
            ts = float(record.get("ts") or 0.0)
            if not isinstance(job_id, str) or not isinstance(event, str):
                self._replay_skipped += 1
                continue
            job = replayed.get(job_id)
            if event == JOB_QUEUED:
                if job is not None:
                    continue  # duplicate queued line (shouldn't happen)
                try:
                    spec = parse_job(record.get("spec"))
                except WireError:
                    # Schema drift or a torn spec: the job cannot be
                    # rebuilt, so its whole history is dropped.
                    self._replay_skipped += 1
                    continue
                job = ServiceJob(id=job_id, spec=spec, submitted_at=ts)
                job.events.append({"ts": ts, "event": JOB_QUEUED, "id": job_id})
                replayed[job_id] = job
                match = _ID_PATTERN.match(job_id)
                if match:
                    max_counter = max(max_counter, int(match.group(1)))
                continue
            if job is None or job.finished:
                # Orphaned record (its queued line was dropped) or noise
                # after a terminal state: both are unreplayable.
                self._replay_skipped += 1
                continue
            if event == "leased":
                job.worker = str(record.get("worker") or "")
                job.attempts = int(record.get("attempt") or job.attempts + 1)
                job.lease_expires = float(record.get("expires") or 0.0)
                continue
            if event == "heartbeat":
                job.lease_expires = float(record.get("expires") or 0.0)
                continue
            if event not in (JOB_RUNNING, "requeued", "result", *TERMINAL_STATES):
                self._replay_skipped += 1
                continue
            entry = {
                key: value for key, value in record.items() if key not in _JOURNAL_ONLY
            }
            job.events.append(entry)
            job.last_error = record.get("last_error") or job.last_error
            if event == JOB_RUNNING:
                job.status = JOB_RUNNING
                job.started_at = ts
            elif event == "requeued":
                job.status = JOB_QUEUED
                job.results = []
                job.started_at = None
                job.worker = None
                job.lease_expires = None
                job.not_before = float(record.get("not_before") or 0.0)
                # `or` would eat a legitimate 0 (a refunded attempt).
                attempt = record.get("attempt")
                if attempt is not None:
                    job.attempts = int(attempt)
            elif event == "result":
                job.results.append(
                    {k: v for k, v in entry.items() if k not in ("ts", "event")}
                )
            else:
                job.status = event
                job.error = record.get("error")
                job.finished_at = ts
                job.worker = None
                job.lease_expires = None
                job.dead_letter = bool(record.get("dead_letter"))
                if event == JOB_CANCELLED:
                    job.token.cancel()
                retired.append(job_id)
        with self._cond:
            self._jobs.update(replayed)
            self._counter = itertools.count(max_counter + 1)
            for job in replayed.values():
                if job.finished:
                    continue
                self._open[job.id] = job
                if job.worker is not None:
                    job.worker = None
                    job.lease_expires = None
                    job.not_before = 0.0
                    job.attempts = max(0, job.attempts - 1)  # refund
                if job.status != JOB_QUEUED or job.results:
                    self._requeue(job, RESTART_REASON, notify_observers=False)
            for job_id in retired:
                self._retire(replayed[job_id])
        self._sync()
