"""Trace identity: ids, contexts and the wire/header encoding.

A *trace* is one job's end-to-end story; a *span* is one timed hop of
it.  The context that travels between processes is just the pair
``(trace_id, span_id)`` — the id of the trace and the span that any
work done under the context should parent to.  It crosses boundaries as
the string ``<trace_id>:<span_id>`` (or a bare ``<trace_id>``): the
``X-Repro-Trace`` HTTP header, the ``trace`` key of a wire-format job
submission, and the fleet task protocol all carry exactly this form, so
a journal replay or a daemon restart reconstructs the same context
bit-for-bit.
"""

from __future__ import annotations

import re
import secrets
from dataclasses import dataclass

#: Hex ids: 16 chars for traces, 8 for spans (sizes are conventions,
#: parsing accepts 8-32 so foreign tooling can interoperate).
_ID_PATTERN = re.compile(r"^[0-9a-f]{8,32}$")


def new_trace_id() -> str:
    return secrets.token_hex(8)


def new_span_id() -> str:
    return secrets.token_hex(4)


@dataclass(frozen=True)
class TraceContext:
    """The propagated pair: which trace, and which span to parent to."""

    trace_id: str
    span_id: str

    def child(self) -> "TraceContext":
        """A fresh context for a new span under this one."""
        return TraceContext(self.trace_id, new_span_id())

    def encode(self) -> str:
        """The wire/header form (``parse_context`` round-trips it)."""
        return f"{self.trace_id}:{self.span_id}"


def mint_context() -> TraceContext:
    """A brand-new root context (trace accepted with no inbound header)."""
    return TraceContext(new_trace_id(), new_span_id())


def valid_encoded(value: object) -> bool:
    """Whether ``value`` is a well-formed encoded context (or bare id)."""
    if not isinstance(value, str):
        return False
    head, sep, tail = value.partition(":")
    if not _ID_PATTERN.match(head):
        return False
    if not sep:
        return True
    return _ID_PATTERN.match(tail) is not None


def parse_context(value: str) -> TraceContext:
    """Decode ``trace_id[:span_id]``; a bare trace id mints the span.

    Raises :class:`ValueError` on anything malformed — callers at trust
    boundaries (the HTTP handler, the wire parser) turn that into a 400.
    """
    if not valid_encoded(value):
        raise ValueError(
            "trace context must be 8-32 lowercase hex chars, optionally "
            f"':'-joined with a span id of the same shape, got {value!r}"
        )
    trace_id, _, span_id = value.partition(":")
    return TraceContext(trace_id, span_id or new_span_id())
