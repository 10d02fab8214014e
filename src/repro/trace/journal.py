"""Per-process span journals and the supervisor's merge protocol.

Every traced process owns one JSONL journal file in the shared trace
directory (``daemon-<pid>.jsonl``, ``worker-<i>-<pid>.jsonl``), appended
through the same flock/heal protocol as every other journal in the repo
(:mod:`repro.jsonlio`).  Because each record lands on disk as one whole
line, a SIGKILL'd worker loses at most its final torn line — everything
it recorded before dying stays readable.

The supervisor *merges*: it tails each worker journal (remembering a
byte offset per file) and appends the new complete lines into
``merged.jsonl``, so a trace survives worker-journal rotation and a
single file holds the fleet's history.  Readers scan every journal in
the directory and de-duplicate by record identity, so merge lag (or a
record present both in its source journal and the merged file) never
double-counts a span.
"""

from __future__ import annotations

import threading
from pathlib import Path

from .. import jsonlio

#: The supervisor-owned merge target inside a trace directory.
MERGED_NAME = "merged.jsonl"


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


def merge_journal(source: str | Path, dest: str | Path, offset: int = 0) -> int:
    """Append ``source``'s complete lines past ``offset`` onto ``dest``.

    Returns the new offset (pass it back next time).  Only whole lines
    move: a torn tail mid-write stays behind until its newline lands.
    Missing sources are fine — a worker that never traced has no file.
    """
    source = Path(source)
    try:
        with source.open("rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except OSError:
        return offset
    if not data:
        return offset
    cut = data.rfind(b"\n") + 1
    if cut == 0:
        return offset
    with jsonlio.open_append(Path(dest)) as dest_handle:
        jsonlio.append_records(dest_handle, data[:cut])
    return offset + cut


def read_trace_dir(
    trace_dir: str | Path, trace_id: str | None = None
) -> list[dict]:
    """Every unique span/event record in a trace directory's journals.

    Scans ``*.jsonl`` (per-process journals *and* the merged file),
    filters to ``trace_id`` when given, and de-duplicates by record
    identity — merged copies and their originals collapse to one.
    Span records sort by start time, events by timestamp.
    """
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        return []
    seen: set[bytes] = set()
    records: list[dict] = []
    for path in sorted(trace_dir.glob("*.jsonl")):
        for record in jsonlio.read_jsonl(path):
            if trace_id is not None and record.get("trace") != trace_id:
                continue
            key = jsonlio.dump_line(record)
            if key in seen:
                continue
            seen.add(key)
            records.append(record)
    records.sort(
        key=lambda r: (float(r.get("start", r.get("ts")) or 0.0), str(r.get("span") or ""))
    )
    return records
