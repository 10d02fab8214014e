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

from .._lazy import lazy_exports

#: The HTTP header a client uses to supply (and the daemon echoes back)
#: a trace context on ``POST /jobs``.  Defined here so the service
#: client needs no trace submodule at all.
TRACE_HEADER = "X-Repro-Trace"

# Resolved lazily (see repro._lazy), so importing the package loads
# neither the runtime (logging, inspect) nor the renderers.
_EXPORTS = {
    "TraceContext": ".context",
    "mint_context": ".context",
    "new_span_id": ".context",
    "new_trace_id": ".context",
    "parse_context": ".context",
    "valid_encoded": ".context",
    "chrome_trace": ".export",
    "render_tree": ".export",
    "slowest_spans": ".export",
    "trace_ids": ".export",
    "SpanJournal": ".journal",
    "read_trace_dir": ".journal",
    "TraceRuntime": ".runtime",
    "activate": ".runtime",
    "annotate": ".runtime",
    "current_context": ".runtime",
    "current_job": ".runtime",
    "event": ".runtime",
    "get_runtime": ".runtime",
    "install": ".runtime",
    "progress": ".runtime",
    "record_span": ".runtime",
    "span": ".runtime",
    "uninstall": ".runtime",
    "SPAN_FORMAT": ".spans",
    "Span": ".spans",
    "TraceEvent": ".spans",
    "parse_record": ".spans",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

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
