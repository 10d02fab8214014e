"""Shared crash-tolerant JSONL primitives.

Three subsystems persist append-only JSONL with the same contract —
the run store (:mod:`repro.dse.store`), the service's job journal
(:mod:`repro.service.jobs`) and the trace span journals
(:mod:`repro.trace.journal`):

- appends go through a long-lived ``"a+b"`` handle under an advisory
  ``flock``, healing a crashed sibling's torn tail first, so concurrent
  writers never corrupt each other's lines;
- readers tolerate everything a crash can leave behind: torn tails,
  blank lines, non-object lines — every healthy line, nothing else.

This module is the single home of those primitives.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterator

try:  # advisory file locking is POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]


def heal_torn_tail(handle: IO[bytes]) -> None:
    """Terminate a torn final line left by a crashed writer.

    Must run under the exclusive lock.  If the file's last byte is not a
    newline, some sibling died mid-append; writing our entry straight
    after it would merge the two lines and lose *ours* too.  A lone
    ``\\n`` turns the torn tail into one unparseable line that the
    loader already skips, and keeps every later entry intact.
    """
    size = handle.seek(0, 2)
    if size == 0:
        return
    handle.seek(size - 1)
    if handle.read(1) != b"\n":
        handle.write(b"\n")


def flock(handle: IO[bytes], exclusive: bool = True) -> None:
    """Take the advisory lock (no-op where ``fcntl`` is unavailable)."""
    if fcntl is not None:
        fcntl.flock(handle, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)


def funlock(handle: IO[bytes]) -> None:
    """Release the advisory lock (no-op where ``fcntl`` is unavailable)."""
    if fcntl is not None:
        fcntl.flock(handle, fcntl.LOCK_UN)


def open_append(path: Path) -> IO[bytes]:
    """Open ``path`` for locked appends, creating parent directories.

    ``"a+b"``: O_APPEND keeps every write at end-of-file no matter which
    writer got there first; the read side lets the torn-tail check
    inspect the current last byte under lock.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("a+b")


def dump_line(record: dict) -> bytes:
    """One record as a compact, newline-terminated JSONL line."""
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
        + b"\n"
    )


def append_records(handle: IO[bytes], data: bytes) -> tuple[int, int]:
    """Append pre-encoded lines under the flock/heal protocol.

    Returns the file's size before the heal and after the write, both
    read under the lock.
    """
    flock(handle, exclusive=True)
    try:
        before = handle.seek(0, 2)
        heal_torn_tail(handle)
        handle.write(data)
        handle.flush()
        return before, handle.tell()
    finally:
        funlock(handle)


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield every parseable JSON-object line of ``path`` (missing: none).

    Torn tails, blank lines and non-object lines are silently skipped —
    the journal/replay contract is "every healthy line, nothing else".
    """
    path = Path(path)
    if not path.exists():
        return
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(payload, dict):
                yield payload
