"""Persistent, resumable run store for exploration sweeps.

JSONL, one JSON object per line, append-only.  Each entry records a
finished evaluation keyed by ``(scenario fingerprint, tier)`` — ``tier``
distinguishes the adaptive driver's cheap greedy bound from a real ILP
evaluation, so a resumed sweep can trust an ILP entry but will still
upgrade a greedy one.

Append-only JSONL is deliberately crash-tolerant: a process killed
mid-write leaves at most one torn final line, which the loader skips
(along with entries from older schema versions).  Re-evaluations simply
append again; the *last* entry per key wins, so the store doubles as a
history of the sweep.

An ILP entry also names the batch-job fingerprint it was solved under
(``solve_key``: the scenario minus what only scores the mapping, such as
a profile no ``pgo`` stage reads) and whether every stage closed
``optimal``.  Proven-optimal entries are indexed by that key
(:meth:`RunStore.solved`), so a scenario that differs from a solved one
only in its profile or NoC is answered by re-scoring, not re-solving.

Concurrent writers are safe: a store keeps **one** append handle open
for its whole life (instead of re-opening per entry) and appends under
the :mod:`repro.jsonlio` protocol — an exclusive advisory ``flock``,
healing a crashed sibling's torn tail (a final line without its
newline) first — so several worker processes, or the mapping daemon's
threads, can share a single file.  The crash costs exactly the one torn
entry and never corrupts the next writer's line.  Readers keep a byte
offset, so picking up siblings' appends parses only the new tail.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from ..jsonlio import append_records, dump_line, flock, funlock, open_append
from . import TIER_GREEDY, TIER_ILP

#: Bump when the entry schema changes; older entries are ignored on load.
STORE_FORMAT = 1


@dataclass(frozen=True)
class RunEntry:
    """One persisted evaluation."""

    fingerprint: str
    tier: str
    scenario: dict  # Scenario.payload() — for human/tool inspection
    status: str  # "ok" | "error"
    objectives: dict | None = None  # ObjectivePoint.as_dict() when ok
    assignment: dict | None = None  # neuron -> slot (stringed keys) when ok
    solves: int = 0  # ILP solves this evaluation spent
    wall_time: float = 0.0
    error: str | None = None
    meta: dict = field(default_factory=dict)  # driver breadcrumbs (rung, ...)
    solve_key: str | None = None  # BatchJob.fingerprint of the ILP solve
    optimal: bool = False  # every stage closed ``optimal``

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def key(self) -> tuple[str, str]:
        return (self.fingerprint, self.tier)

    def to_json(self) -> dict:
        return {
            "format": STORE_FORMAT,
            "fingerprint": self.fingerprint,
            "tier": self.tier,
            "scenario": self.scenario,
            "status": self.status,
            "objectives": self.objectives,
            "assignment": self.assignment,
            "solves": self.solves,
            "wall_time": self.wall_time,
            "error": self.error,
            "meta": self.meta,
            "solve_key": self.solve_key,
            "optimal": self.optimal,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "RunEntry":
        return cls(
            fingerprint=payload["fingerprint"],
            tier=payload["tier"],
            scenario=payload.get("scenario") or {},
            status=payload["status"],
            objectives=payload.get("objectives"),
            assignment=payload.get("assignment"),
            solves=int(payload.get("solves", 0)),
            wall_time=float(payload.get("wall_time", 0.0)),
            error=payload.get("error"),
            meta=payload.get("meta") or {},
            solve_key=payload.get("solve_key"),
            optimal=bool(payload.get("optimal", False)),
        )


def _parse_entry(line: str) -> RunEntry | None:
    """One JSONL line -> entry, or ``None`` for torn/stale/blank lines."""
    line = line.strip()
    if not line:
        return None
    try:
        payload = json.loads(line)
        if payload.get("format") != STORE_FORMAT:
            raise ValueError("stale store format")
        return RunEntry.from_json(payload)
    except (ValueError, KeyError, TypeError):
        return None


class RunStore:
    """Append-only JSONL store of :class:`RunEntry` records.

    ``path=None`` keeps everything in memory (ephemeral sweeps and
    tests); otherwise entries are flushed line-by-line so a concurrent
    reader — or the next resumed run — sees every finished scenario.

    A persistent store is safe to share between processes: appends go
    through one long-lived handle under an exclusive advisory ``flock``
    (plus an in-process mutex for threaded writers such as the mapping
    daemon).  The store remembers how far into the file it has read, so
    :meth:`reload` parses only the lines other writers appended since;
    :meth:`close` (or the context manager form) releases the handle.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: dict[tuple[str, str], RunEntry] = {}
        self._solved: dict[str, RunEntry] = {}  # solve_key -> optimal entry
        self._skipped_lines = 0
        self._offset = 0  # bytes of the file already folded into _entries
        self._lock = threading.Lock()
        self._handle: IO[bytes] | None = None
        if self.path is None:
            return
        if self.path.is_dir():
            raise ValueError(
                f"{self.path} is a directory; the run store is one JSONL "
                f"file now.  Concatenate the old shards (each key lived in "
                f"exactly one) with: cat {self.path}/shard-*.jsonl > runs.jsonl"
            )
        self._read_tail()

    def _read_tail(self) -> None:
        """Fold the lines appended since the last read into the entries.

        Reads under the *shared* lock, so no writer is mid-append: an
        unterminated last line can only be a crashed writer's torn tail.
        It is counted in :attr:`skipped_lines` and read past; the next
        writer's heal turns it into a line of its own.  A file that
        shrank below the offset was replaced or truncated, so it is
        re-read from the start.
        """
        assert self.path is not None
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return
        with handle:
            flock(handle, exclusive=False)
            try:
                if handle.seek(0, 2) < self._offset:
                    self._entries.clear()
                    self._solved.clear()
                    self._skipped_lines = 0
                    self._offset = 0
                handle.seek(self._offset)
                data = handle.read()
            finally:
                funlock(handle)
        self._offset += len(data)
        for raw in data.split(b"\n"):
            if not raw.strip():
                continue
            entry = _parse_entry(raw.decode("utf-8", errors="replace"))
            if entry is None:
                self._skipped_lines += 1
                continue
            self._add(entry)

    def _add(self, entry: RunEntry) -> None:
        self._entries[entry.key] = entry
        if entry.solve_key is not None and entry.ok and entry.optimal:
            self._solved[entry.solve_key] = entry

    def reload(self) -> int:
        """Fold in entries appended by other writers since the last read.

        Returns the number of keyed entries after the reload.  A memory
        store is a no-op.  An entry recorded through *this* store is
        re-read only when a sibling's line preceded it in the file (last
        line per key wins, as always), so the in-memory view converges
        with every sibling writer's.
        """
        with self._lock:
            if self.path is not None:
                self._read_tail()
            return len(self._entries)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self._entries

    def get(self, fingerprint: str, tier: str = TIER_ILP) -> RunEntry | None:
        return self._entries.get((fingerprint, tier))

    def solved(self, solve_key: str) -> RunEntry | None:
        """The last ok, proven-optimal entry solved under ``solve_key``.

        A proof holds whatever budget produced it, so such an entry
        answers every scenario with the same solve key; entries that
        closed ``feasible`` (a node-capped rung, a timed-out solve) and
        entries written without a ``solve_key`` serve only exact hits.
        """
        return self._solved.get(solve_key)

    def entries(self) -> list[RunEntry]:
        return list(self._entries.values())

    def completed(self, tier: str = TIER_ILP) -> dict[str, RunEntry]:
        """fingerprint -> entry for every *successful* evaluation at a tier.

        Failed entries are deliberately excluded so a resumed sweep
        retries them — an error is not an answer worth pinning.
        """
        return {
            entry.fingerprint: entry
            for entry in self._entries.values()
            if entry.tier == tier and entry.ok
        }

    def record(self, entry: RunEntry) -> None:
        """Persist one evaluation (last write per key wins).

        The append is serialized by an exclusive advisory lock: the full
        ``line + newline`` is flushed before the lock drops, so readers
        and sibling writers never observe a half-written entry (short of
        a crash, whose torn tail the next append heals).  When the file
        ended at this store's read offset, the offset moves past the new
        line; otherwise a sibling's unread lines lie before it and the
        next :meth:`reload` reads both.
        """
        with self._lock:
            self._add(entry)
            if self.path is None:
                return
            if self._handle is None or self._handle.closed:
                self._handle = open_append(self.path)
            before, after = append_records(self._handle, dump_line(entry.to_json()))
            if before == self._offset:
                # Nothing unread sat between our offset and our line, so
                # the next reload need not parse our own line again.
                self._offset = after

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the append handle (records still work — they reopen)."""
        with self._lock:
            if self._handle is not None and not self._handle.closed:
                self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception:
            pass

    @property
    def skipped_lines(self) -> int:
        """Unreadable lines encountered on load (torn tails, old formats)."""
        return self._skipped_lines
