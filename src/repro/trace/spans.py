"""Span and event records: the tracing subsystem's on-disk schema.

One JSONL line per record, two kinds:

``span``
    A timed interval: ``{"format", "kind": "span", "trace", "span",
    "parent", "name", "start", "dur", "proc", "attrs"}``.  ``start`` is
    wall-clock epoch seconds (so records from different processes line
    up), ``dur`` is seconds.
``event``
    A point-in-time observation (solver incumbents, bound updates):
    ``{"format", "kind": "event", "trace", "span", "name", "ts",
    "proc", "attrs"}``.

Records are tolerant on the way in — :func:`parse_record` returns
``None`` for anything torn, stale or foreign, mirroring every other
journal in the repo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Bump when the span record schema changes; stale lines are skipped.
SPAN_FORMAT = 1

KIND_SPAN = "span"
KIND_EVENT = "event"


@dataclass
class Span:
    """One timed hop of a trace."""

    trace_id: str
    span_id: str
    name: str
    start: float  # epoch seconds
    duration: float  # seconds
    parent_id: str | None = None
    process: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def payload(self) -> dict:
        body: dict = {
            "format": SPAN_FORMAT,
            "kind": KIND_SPAN,
            "trace": self.trace_id,
            "span": self.span_id,
            "name": self.name,
            "start": self.start,
            "dur": self.duration,
            "proc": self.process,
        }
        if self.parent_id is not None:
            body["parent"] = self.parent_id
        if self.attrs:
            body["attrs"] = self.attrs
        return body


@dataclass
class TraceEvent:
    """One point-in-time observation inside a trace."""

    trace_id: str
    name: str
    ts: float  # epoch seconds
    span_id: str | None = None
    process: str = ""
    attrs: dict = field(default_factory=dict)

    def payload(self) -> dict:
        body: dict = {
            "format": SPAN_FORMAT,
            "kind": KIND_EVENT,
            "trace": self.trace_id,
            "name": self.name,
            "ts": self.ts,
            "proc": self.process,
        }
        if self.span_id is not None:
            body["span"] = self.span_id
        if self.attrs:
            body["attrs"] = self.attrs
        return body


def parse_record(record: dict) -> "Span | TraceEvent | None":
    """One journal dict -> Span/TraceEvent, or ``None`` for junk."""
    if not isinstance(record, dict) or record.get("format") != SPAN_FORMAT:
        return None
    kind = record.get("kind")
    trace_id = record.get("trace")
    name = record.get("name")
    if not isinstance(trace_id, str) or not isinstance(name, str):
        return None
    attrs = record.get("attrs")
    attrs = attrs if isinstance(attrs, dict) else {}
    try:
        if kind == KIND_SPAN:
            span_id = record.get("span")
            if not isinstance(span_id, str):
                return None
            return Span(
                trace_id=trace_id,
                span_id=span_id,
                name=name,
                start=float(record.get("start") or 0.0),
                duration=float(record.get("dur") or 0.0),
                parent_id=record.get("parent"),
                process=str(record.get("proc") or ""),
                attrs=attrs,
            )
        if kind == KIND_EVENT:
            return TraceEvent(
                trace_id=trace_id,
                name=name,
                ts=float(record.get("ts") or 0.0),
                span_id=record.get("span"),
                process=str(record.get("proc") or ""),
                attrs=attrs,
            )
    except (TypeError, ValueError):
        return None
    return None
