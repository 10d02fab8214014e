"""Deterministic fault injection for the fleet chaos tests.

These helpers are loaded *by worker processes* through
``FleetConfig.mapper_factory`` references (``"/path/chaos.py:flaky_mapper"``)
— spawn cannot pickle closures and ``tests/`` is not an importable
package in a child, so the factory contract is a file path plus a
module-level function name.

The point of the module is determinism under chaos: every injected
fault is driven by an *attempt counter persisted on disk* (one flock'd
file per fault key), so the schedule "fail the first K attempts, then
succeed" holds no matter which worker process draws the job, how many
times the supervisor respawns workers, or whether the whole daemon
restarts in between.
"""

from __future__ import annotations

import fcntl
import os
import time
from pathlib import Path

from repro.batch.engine import BatchMapper

#: Exit code for ``mode="exit"`` faults — distinct from Python crashes.
CRASH_EXIT_CODE = 23


def bump_attempt(attempts_dir: str | Path, key: str) -> int:
    """Increment and return the persistent attempt counter for ``key``.

    Read-modify-write under an exclusive ``flock``, so concurrent
    workers (and restarted daemons) see one strictly increasing series.
    """
    path = Path(attempts_dir) / f"{key}.attempts"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            handle.seek(0)
            raw = handle.read().strip()
            count = (int(raw) if raw else 0) + 1
            handle.seek(0)
            handle.truncate()
            handle.write(str(count).encode("ascii"))
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    return count


def read_attempts(attempts_dir: str | Path, key: str) -> int:
    """The counter's current value (0 if the fault never fired)."""
    path = Path(attempts_dir) / f"{key}.attempts"
    try:
        raw = path.read_text(encoding="ascii").strip()
    except OSError:
        return 0
    return int(raw) if raw else 0


class FaultInjectingMapper(BatchMapper):
    """A BatchMapper that sabotages the first ``fail_first`` attempts.

    Every ``map_all`` call bumps the shared attempt counter for ``key``;
    while the count is ``<= fail_first`` the configured fault fires:

    ``"raise"``
        Raise ``RuntimeError`` — the worker reports a failed attempt,
        which burns one unit of the job's retry budget and re-queues it
        (or dead-letters it once the budget is gone).
    ``"exit"``
        ``os._exit(CRASH_EXIT_CODE)`` — a hard process death with no
        cleanup, indistinguishable from ``kill -9`` to the supervisor.
    ``"sleep"``
        Sleep ``delay`` seconds *then solve normally* — a stall window
        in which a test can SIGKILL the worker mid-solve; if nobody
        kills it, the attempt still succeeds (benign fallback).

    Attempts beyond ``fail_first`` delegate to the real engine.
    """

    def __init__(
        self,
        attempts_dir: str | Path | None = None,
        fail_first: int = 1,
        mode: str = "raise",
        key: str = "fault",
        delay: float = 30.0,
    ) -> None:
        super().__init__(jobs=1, portfolio=False)
        if attempts_dir is None:
            raise ValueError("attempts_dir is required (faults must persist)")
        if mode not in ("raise", "exit", "sleep"):
            raise ValueError(f"unknown fault mode {mode!r}")
        self.attempts_dir = attempts_dir
        self.fail_first = fail_first
        self.mode = mode
        self.key = key
        self.delay = delay

    def map_all(self, batch_jobs, should_cancel=None):
        count = bump_attempt(self.attempts_dir, self.key)
        if count <= self.fail_first:
            if self.mode == "exit":
                os._exit(CRASH_EXIT_CODE)
            if self.mode == "raise":
                raise RuntimeError(f"injected fault (attempt {count})")
            # "sleep": stall in small slices so a cancel/kill window
            # exists, then fall through and solve for real.
            deadline = time.monotonic() + self.delay
            while time.monotonic() < deadline:
                if should_cancel is not None and should_cancel():
                    break
                time.sleep(0.05)
        return super().map_all(batch_jobs, should_cancel=should_cancel)


class CountingMapper(BatchMapper):
    """A BatchMapper that counts ``map_all`` invocations, then solves.

    The deadline-propagation tests use it to prove a claimed-but-expired
    job terminates with *zero* mapper invocations: the persistent
    counter survives worker spawns and daemon restarts, so "the mapper
    was never called" is a disk fact, not an in-memory guess.
    """

    def __init__(
        self,
        attempts_dir: str | Path | None = None,
        key: str = "invocations",
    ) -> None:
        super().__init__(jobs=1, portfolio=False)
        if attempts_dir is None:
            raise ValueError("attempts_dir is required (counts must persist)")
        self.attempts_dir = attempts_dir
        self.key = key

    def map_all(self, batch_jobs, should_cancel=None):
        bump_attempt(self.attempts_dir, self.key)
        return super().map_all(batch_jobs, should_cancel=should_cancel)


# -- factories (FleetConfig.mapper_factory targets) ---------------------
def flaky_mapper(**kwargs):
    """First ``fail_first`` attempts raise; later attempts solve."""
    return FaultInjectingMapper(mode="raise", **kwargs)


def crashing_mapper(**kwargs):
    """First ``fail_first`` attempts hard-kill the worker process."""
    return FaultInjectingMapper(mode="exit", **kwargs)


def stalling_mapper(**kwargs):
    """First ``fail_first`` attempts stall ``delay`` seconds, then solve."""
    return FaultInjectingMapper(mode="sleep", **kwargs)


def counting_mapper(**kwargs):
    """Counts every ``map_all`` call in the attempts dir, then solves."""
    return CountingMapper(**kwargs)


class TracedStallingMapper(BatchMapper):
    """Journals an ``attempt`` span, then stalls — the SIGKILL-survival
    fixture for trace tests.

    The span (tagged with the persistent attempt number) is flushed to
    the worker's journal *before* the attempt counter moves, so a test
    that kills the worker once the counter shows the attempt knows
    exactly which record must survive the supervisor's salvage merge.
    """

    def __init__(
        self,
        attempts_dir: str | Path | None = None,
        fail_first: int = 1,
        key: str = "traced-stall",
        delay: float = 60.0,
    ) -> None:
        super().__init__(jobs=1, portfolio=False)
        if attempts_dir is None:
            raise ValueError("attempts_dir is required (faults must persist)")
        self.attempts_dir = attempts_dir
        self.fail_first = fail_first
        self.key = key
        self.delay = delay

    def map_all(self, batch_jobs, should_cancel=None):
        from repro import trace

        # The span is journaled before the counter moves, so a test that
        # kills the worker once the counter file exists never loses it.
        count = read_attempts(self.attempts_dir, self.key) + 1
        trace.record_span(
            "attempt", start=time.time(), duration=0.0, attempt=count
        )
        runtime = trace.get_runtime()
        if runtime is not None:
            runtime.flush()
        bump_attempt(self.attempts_dir, self.key)
        if count <= self.fail_first:
            deadline = time.monotonic() + self.delay
            while time.monotonic() < deadline:
                if should_cancel is not None and should_cancel():
                    break
                time.sleep(0.05)
        return super().map_all(batch_jobs, should_cancel=should_cancel)


def traced_stalling_mapper(**kwargs):
    """Journals an attempt span then stalls; later attempts solve."""
    return TracedStallingMapper(**kwargs)
