"""Per-process span journals: one file per process, one copy per record.

Every traced process owns one JSONL journal file in the shared trace
directory (``daemon-<pid>.jsonl``, ``worker-<i>-<pid>.jsonl``), appended
through the same flock/heal protocol as every other journal in the repo
(:mod:`repro.jsonlio`).  Because each record lands on disk as one whole
line, a SIGKILL'd worker loses at most its final torn line — everything
it recorded before dying stays readable.

A span is written once, by the process that timed it, and nothing
copies it elsewhere.  Readers (:func:`read_trace_dir`) scan every
journal in the directory, so a dead worker's spans are read straight
from its own file.
"""

from __future__ import annotations

import threading
from pathlib import Path

from .. import jsonlio


class SpanJournal:
    """One process's span sink: buffer in memory, flush whole lines.

    ``flush_every`` bounds the buffer; the default of 1 makes every
    record durable immediately — span volume is a few dozen per job, so
    a flock+write per record is noise next to the solves being traced.
    Hot emitters (solver progress) may batch by passing a larger value.
    """

    def __init__(self, path: str | Path, flush_every: int = 1) -> None:
        self.path = Path(path)
        self.flush_every = max(1, flush_every)
        self._buffer: list[bytes] = []
        self._lock = threading.Lock()
        self._handle = None
        self._closed = False

    def record(self, payload: dict) -> None:
        """Queue one record; flushes once the buffer fills."""
        line = jsonlio.dump_line(payload)
        with self._lock:
            if self._closed:
                return
            self._buffer.append(line)
            if len(self._buffer) >= self.flush_every:
                self._flush_locked()

    def flush(self) -> None:
        with self._lock:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        data = b"".join(self._buffer)
        self._buffer.clear()
        try:
            if self._handle is None or self._handle.closed:
                self._handle = jsonlio.open_append(self.path)
            jsonlio.append_records(self._handle, data)
        except OSError:  # disk trouble must never kill a solve
            pass

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            self._closed = True
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "SpanJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_trace_dir(
    trace_dir: str | Path, trace_id: str | None = None
) -> list[dict]:
    """Every span/event record in a trace directory's journals.

    Scans each process's ``*.jsonl`` journal and filters to ``trace_id``
    when given.  Span records sort by start time, events by timestamp.
    """
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        return []
    records = [
        record
        for path in sorted(trace_dir.glob("*.jsonl"))
        for record in jsonlio.read_jsonl(path)
        if trace_id is None or record.get("trace") == trace_id
    ]
    records.sort(
        key=lambda r: (float(r.get("start", r.get("ts")) or 0.0), str(r.get("span") or ""))
    )
    return records
