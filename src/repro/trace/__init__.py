"""Span-based distributed tracing for the mapping stack.

Threading model: a :class:`TraceContext` (``trace_id``/``span_id``) is
minted at ``POST /jobs`` (or accepted from the ``X-Repro-Trace``
header), rides the job spec through the registry and its lease, crosses
to fleet workers in the task protocol, and is re-activated ambiently
(:func:`activate`) wherever the job's work actually runs — so the batch
engine, the mapping pipeline and the HiGHS backend record spans and
progress events without any of their signatures changing.

Each span is recorded once, by the process that times it, into that
process's own journal: the mapping pipeline opens a live ``stage:*``
span around each paper stage (area, SNU, PGO) and lays its measured
``phase:*`` timers out under it.

See :mod:`.runtime` for the ambient machinery, :mod:`.journal` for the
per-process JSONL journals and their reader, and :mod:`.export` for the
span-tree / Chrome-trace renderers behind ``repro trace``.
"""

from .context import (
    TRACE_HEADER,
    TraceContext,
    mint_context,
    new_span_id,
    new_trace_id,
    parse_context,
    valid_encoded,
)
from .export import chrome_trace, render_tree, slowest_spans, trace_ids
from .journal import SpanJournal, read_trace_dir
from .runtime import (
    TraceRuntime,
    activate,
    annotate,
    current_context,
    current_job,
    event,
    get_runtime,
    install,
    progress,
    record_span,
    span,
    uninstall,
)
from .spans import SPAN_FORMAT, Span, TraceEvent, parse_record

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "mint_context",
    "new_span_id",
    "new_trace_id",
    "parse_context",
    "valid_encoded",
    "chrome_trace",
    "render_tree",
    "slowest_spans",
    "trace_ids",
    "SpanJournal",
    "read_trace_dir",
    "TraceRuntime",
    "activate",
    "annotate",
    "current_context",
    "current_job",
    "event",
    "get_runtime",
    "install",
    "progress",
    "record_span",
    "span",
    "uninstall",
    "SPAN_FORMAT",
    "Span",
    "TraceEvent",
    "parse_record",
]
