"""Fingerprint-keyed result cache for batch mapping runs.

Stores the *payload* form of a finished job (plain JSON: per-stage
assignments plus solve summaries) keyed by the job fingerprint, so
repeated sweeps skip already-solved instances.  Two tiers:

- an in-memory dict, always on;
- an optional on-disk tier (one ``<fingerprint>.json`` per entry under a
  directory), surviving across processes and runs.  Entries publish by
  atomic rename from a writer-private temp file, so any number of
  threads and processes can share one directory.

The cache never stores live :class:`~repro.mapping.solution.Mapping`
objects — payloads are rehydrated against the caller's problem instance,
which both keeps entries small and guarantees a hit returns a mapping
bound to the *caller's* network/architecture objects.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

#: Bump when the payload schema changes; stale on-disk entries are ignored.
CACHE_FORMAT = 1


@dataclass
class CacheStats:
    """Hit/miss counters for one cache instance.

    The counters are mutated concurrently by service worker threads, so
    every update goes through a mutex — bare ``+= 1`` increments are a
    read-modify-write race that silently drops counts under load.  Use
    :meth:`snapshot` to read a consistent triple (it holds the same
    lock, so ``hits + misses == lookups`` is exact even mid-hammer).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def record_store(self) -> None:
        with self._lock:
            self.stores += 1

    def reclassify_hit_as_miss(self) -> None:
        """Atomically turn one counted hit into a miss.

        The engine rejects a cache hit after the fact when the cached
        solve was produced under a smaller budget than the new request
        brings; both counters must move together or a concurrent
        snapshot sees a phantom lookup.
        """
        with self._lock:
            self.hits -= 1
            self.misses += 1

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> dict:
        """A lock-consistent view of every counter plus derived rates."""
        with self._lock:
            hits, misses, stores = self.hits, self.misses, self.stores
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "stores": stores,
            "lookups": lookups,
            "hit_rate": hits / lookups if lookups else 0.0,
        }


@dataclass
class ResultCache:
    """Two-tier (memory + optional directory) payload cache."""

    path: Path | None = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: dict[str, dict] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.path is not None:
            self.path = Path(self.path)
            self.path.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict | None:
        """Payload for ``key``, or ``None`` on a miss (counted)."""
        payload = self._memory.get(key)
        if payload is None and self.path is not None:
            payload = self._read_disk(key)
            if payload is not None:
                self._memory[key] = payload
        if payload is None:
            self.stats.record_miss()
            return None
        self.stats.record_hit()
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store a JSON-serializable payload under ``key``."""
        self._memory[key] = payload
        self.stats.record_store()
        if self.path is not None:
            entry = {"format": CACHE_FORMAT, "key": key, "payload": payload}
            target = self._entry_path(key)
            # One temp file per writer: two writers of one key must not
            # rename the same file out from under each other.
            tmp = target.with_name(
                f"{target.name}.{os.getpid()}-{threading.get_ident()}.tmp"
            )
            tmp.write_text(json.dumps(entry, sort_keys=True))
            tmp.replace(target)  # atomic publish

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self.path is not None and self._entry_path(key).exists()
        )

    def __len__(self) -> int:
        if self.path is None:
            return len(self._memory)
        disk = {p.stem for p in self.path.glob("*.json")}
        return len(disk | set(self._memory))

    def clear(self) -> None:
        self._memory.clear()
        if self.path is not None:
            for entry in self.path.glob("*.json"):
                entry.unlink()

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / f"{key}.json"

    def _read_disk(self, key: str) -> dict | None:
        entry_path = self._entry_path(key)
        if not entry_path.exists():
            return None
        try:
            entry = json.loads(entry_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("format") != CACHE_FORMAT or entry.get("key") != key:
            return None
        return entry.get("payload")
