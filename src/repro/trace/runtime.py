"""Ambient tracing runtime: contextvars, the journal, the watchdog.

One :class:`TraceRuntime` per traced process (the daemon installs one
when ``--trace-dir`` is set; ``worker_main`` installs one from its
``FleetConfig``).  Instrumentation sites throughout the stack call the
module-level helpers — :func:`span`, :func:`annotate`, :func:`record_span`,
:func:`event`, :func:`progress` — which are strict no-ops costing two
attribute loads when no runtime is installed or no context is active, so
tracing adds nothing to untraced jobs.

The *current context* and *current job id* ride :mod:`contextvars`, so
every worker loop, thread or process, gets correct ambient parenting
without threading arguments through the explorer/engine/solver layers.

The slow-span watchdog lives here too: every finished span whose
duration exceeds the runtime's threshold is logged (``repro.trace``
logger) and counted, surfaced through ``/metrics``.
"""

from __future__ import annotations

import contextlib
import logging
import threading
import time
from contextvars import ContextVar
from pathlib import Path

from .context import TraceContext, new_span_id
from .journal import SpanJournal
from .spans import Span, TraceEvent

logger = logging.getLogger("repro.trace")

_current_context: ContextVar[TraceContext | None] = ContextVar(
    "repro_trace_context", default=None
)
_current_job: ContextVar[str | None] = ContextVar(
    "repro_trace_job", default=None
)
#: The attrs of the innermost open :func:`span`, for :func:`annotate`.
_current_attrs: ContextVar[dict | None] = ContextVar(
    "repro_trace_attrs", default=None
)

_runtime: "TraceRuntime | None" = None


class TraceRuntime:
    """One process's tracing state: journal, watchdog, live progress."""

    def __init__(
        self,
        trace_dir: str | Path | None,
        process: str,
        slow_span_threshold: float | None = None,
        flush_every: int = 1,
    ) -> None:
        self.process = process
        self.slow_span_threshold = slow_span_threshold
        self.journal = (
            SpanJournal(
                Path(trace_dir) / f"{process}.jsonl", flush_every=flush_every
            )
            if trace_dir is not None
            else None
        )
        self._lock = threading.Lock()
        self._slow_spans = 0
        #: job id -> latest solver progress dict; worker heartbeats carry
        #: it to the daemon's gap gauge.
        self._progress: dict[str, dict] = {}

    # -- recording -----------------------------------------------------
    def record_span(self, span: Span) -> None:
        threshold = self.slow_span_threshold
        if threshold is not None and span.duration > threshold:
            with self._lock:
                self._slow_spans += 1
            logger.warning(
                "slow span %s (%.3fs > %.3fs) trace=%s proc=%s",
                span.name, span.duration, threshold, span.trace_id, span.process,
            )
        if self.journal is not None:
            self.journal.record(span.payload())

    def record_event(self, trace_event: TraceEvent) -> None:
        if self.journal is not None:
            self.journal.record(trace_event.payload())

    def flush(self) -> None:
        if self.journal is not None:
            self.journal.flush()

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- watchdog / progress views -------------------------------------
    @property
    def slow_spans(self) -> int:
        with self._lock:
            return self._slow_spans

    def update_progress(self, job_id: str, payload: dict) -> None:
        with self._lock:
            self._progress[job_id] = dict(payload)

    def progress_for(self, job_id: str) -> dict | None:
        with self._lock:
            progress = self._progress.get(job_id)
            return dict(progress) if progress is not None else None

    def clear_progress(self, job_id: str) -> None:
        with self._lock:
            self._progress.pop(job_id, None)


# -- installation -------------------------------------------------------
def install(runtime: TraceRuntime) -> TraceRuntime:
    """Make ``runtime`` the process's ambient sink (replacing any prior)."""
    global _runtime
    previous, _runtime = _runtime, runtime
    if previous is not None:
        previous.close()
    return runtime


def uninstall() -> None:
    global _runtime
    previous, _runtime = _runtime, None
    if previous is not None:
        previous.close()


def get_runtime() -> TraceRuntime | None:
    return _runtime


# -- ambient context ----------------------------------------------------
def current_context() -> TraceContext | None:
    return _current_context.get()


def current_job() -> str | None:
    return _current_job.get()


@contextlib.contextmanager
def activate(context: TraceContext | None, job_id: str | None = None):
    """Bind the ambient context (and job id) for the enclosed block."""
    context_token = _current_context.set(context)
    job_token = _current_job.set(job_id)
    try:
        yield context
    finally:
        _current_job.reset(job_token)
        _current_context.reset(context_token)


# -- instrumentation helpers (no-ops when tracing is inactive) ----------
@contextlib.contextmanager
def span(name: str, **attrs):
    """Time the enclosed block as a child span of the ambient context.

    Yields the child's :class:`TraceContext` (or ``None`` when tracing
    is inactive); nested ``span`` calls parent to it automatically.
    """
    runtime = _runtime
    parent = _current_context.get()
    if runtime is None or parent is None:
        yield None
        return
    child = parent.child()
    token = _current_context.set(child)
    attrs_token = _current_attrs.set(attrs)
    start = time.time()
    clock = time.perf_counter()
    try:
        yield child
    finally:
        _current_attrs.reset(attrs_token)
        _current_context.reset(token)
        runtime.record_span(
            Span(
                trace_id=child.trace_id,
                span_id=child.span_id,
                name=name,
                start=start,
                duration=time.perf_counter() - clock,
                parent_id=parent.span_id,
                process=runtime.process,
                attrs=attrs,
            )
        )


def annotate(**attrs) -> None:
    """Add attributes to the innermost open :func:`span` (no-op if none).

    For attributes known only once the block's work is done, such as a
    solve's backend and status; they are recorded when the span closes.
    """
    current = _current_attrs.get()
    if current is not None:
        current.update(attrs)


def record_span(
    name: str,
    context: TraceContext | None = None,
    *,
    start: float,
    duration: float,
    **attrs,
) -> None:
    """Record an already-measured span under ``context`` (or the ambient one).

    For intervals timed by something other than a ``with span(...)``
    block: the supervisor's queue waits and leases, and a solver stage's
    own phase timers, laid out under their live stage span.
    """
    runtime = _runtime
    parent = context if context is not None else _current_context.get()
    if runtime is None or parent is None:
        return
    runtime.record_span(
        Span(
            trace_id=parent.trace_id,
            span_id=new_span_id(),
            name=name,
            start=start,
            duration=max(0.0, duration),
            parent_id=parent.span_id,
            process=runtime.process,
            attrs=attrs,
        )
    )


def event(name: str, context: TraceContext | None = None, **attrs) -> None:
    """Record a point-in-time event against the (ambient) context."""
    runtime = _runtime
    target = context if context is not None else _current_context.get()
    if runtime is None or target is None:
        return
    runtime.record_event(
        TraceEvent(
            trace_id=target.trace_id,
            name=name,
            ts=time.time(),
            span_id=target.span_id,
            process=runtime.process,
            attrs=attrs,
        )
    )


def progress(
    name: str = "progress",
    *,
    objective: float | None = None,
    bound: float | None = None,
    nodes: int | None = None,
    det_time: float | None = None,
) -> None:
    """Live solver progress: journal an event + refresh the gap gauge.

    Called from solver hot paths (HiGHS incumbent callbacks), so it
    bails in two loads when tracing is inactive.  The relative gap is
    derived here once so every surface (heartbeats, ``/metrics``,
    ``repro trace``) reports the same number.
    """
    runtime = _runtime
    context = _current_context.get()
    if runtime is None or context is None:
        return
    gap = None
    if objective is not None and bound is not None:
        gap = abs(objective - bound) / max(abs(objective), 1e-9)
    attrs: dict = {}
    if objective is not None:
        attrs["objective"] = objective
    if bound is not None:
        attrs["bound"] = bound
    if nodes is not None:
        attrs["nodes"] = nodes
    if det_time is not None:
        attrs["det_time"] = det_time
    if gap is not None:
        attrs["gap"] = gap
    runtime.record_event(
        TraceEvent(
            trace_id=context.trace_id,
            name=name,
            ts=time.time(),
            span_id=context.span_id,
            process=runtime.process,
            attrs=attrs,
        )
    )
    job_id = _current_job.get()
    if job_id is not None:
        runtime.update_progress(job_id, {"event": name, "ts": time.time(), **attrs})
