"""Span-based distributed tracing for the mapping stack.

Threading model: a :class:`TraceContext` (``trace_id``/``span_id``) is
minted at ``POST /jobs`` (or accepted from the ``X-Repro-Trace``
header), rides the job spec through the registry and its lease, crosses
to fleet workers in the task protocol, and is re-activated ambiently
(:func:`activate`) wherever the job's work actually runs — so the batch
engine, the solver portfolio and the ILP backends record spans and
progress events without any of their signatures changing.

See :mod:`.runtime` for the ambient machinery, :mod:`.journal` for the
per-process JSONL journals and the supervisor merge, and :mod:`.export`
for the span-tree / Chrome-trace renderers behind ``repro trace``.
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
from .journal import MERGED_NAME, SpanJournal, merge_journal, read_trace_dir
from .runtime import (
    TraceRuntime,
    activate,
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
    "MERGED_NAME",
    "SpanJournal",
    "merge_journal",
    "read_trace_dir",
    "TraceRuntime",
    "activate",
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
