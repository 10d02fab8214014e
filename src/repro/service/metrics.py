"""Production eyes for the mapping daemon: lock-consistent metrics.

Everything the ``GET /metrics`` endpoint reports lives here:

- :class:`ServiceMetrics` — monotonic counters and bounded
  histograms behind **one** lock, so a scrape sees a consistent snapshot
  even while worker threads hammer the counters.  The registry reports job state transitions and
  scenario results into it (via :meth:`ServiceMetrics.job_event`) —
  the solve counters and ``solve_*`` histograms
  are read off those results — and the supervisor reports queue-wait
  and job-duration samples.
- :class:`LoopLatencyProbe` — a background thread that repeatedly
  sleeps a fixed interval and records the overshoot, the classic
  event-loop-lag measurement: under load the scheduler hands the probe
  its slice late, and the p50/p90/p99 of that drift is how overloaded
  the daemon's thread pool is.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from typing import Callable

#: Samples kept per histogram; percentiles are over this sliding window.
HISTOGRAM_WINDOW = 2048

#: Characters allowed in a solve-phase histogram suffix; anything else
#: collapses to ``_`` so a hostile/garbled payload can't mint odd keys.
_PHASE_NAME = re.compile(r"[^a-z0-9_]+")

#: Percentiles every histogram snapshot reports.
PERCENTILES = (50, 90, 99)


class _Histogram:
    """Bounded reservoir of observations (caller holds the metrics lock)."""

    __slots__ = ("samples", "count", "total", "max")

    def __init__(self) -> None:
        self.samples: deque[float] = deque(maxlen=HISTOGRAM_WINDOW)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.samples.append(value)
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def snapshot(self) -> dict:
        ordered = sorted(self.samples)
        body = {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
        }
        for pct in PERCENTILES:
            if ordered:
                index = min(len(ordered) - 1, (pct * len(ordered)) // 100)
                body[f"p{pct}"] = ordered[index]
            else:
                body[f"p{pct}"] = 0.0
        return body


class ServiceMetrics:
    """Lock-guarded counters/histograms for one daemon process.

    All mutation and the :meth:`snapshot` read happen under a single
    mutex, so a scrape never observes a half-applied update (a result
    counted whose solves are not).  Counters are monotonic and cover
    *this process's lifetime*; per-state job counts, store entries and
    busy workers are scraped live from their owners at request time,
    under those owners' own locks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, _Histogram] = {}
        #: job id -> latest in-flight solver progress (gap gauge et al).
        self._solver_progress: dict[str, dict] = {}

    # -- primitives ----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._inc_locked(name, amount)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self._observe_locked(name, value)

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- instrumentation seams -----------------------------------------
    def job_event(self, record: dict) -> None:
        """Registry observer: one call per job state transition / result.

        ``record`` is the registry's journal record (``event`` plus
        context).  Terminal states and results get their own counters so
        ``/metrics`` can report totals that outlive registry eviction.
        """
        event = record.get("event")
        if event == "queued":
            self.inc("jobs_submitted")
        elif event == "running":
            self.inc("jobs_started")
        elif event == "result":
            self._count_result(record)
        elif event == "requeued":
            self.inc("jobs_requeued")
        elif event in ("done", "error", "cancelled", "deadline", "shed"):
            # Mirrors wire.TERMINAL_STATUSES (kept literal: this module
            # sits below the wire layer in the import graph).
            self.inc("jobs_finished")
            self.inc(f"jobs_{event}")

    def _count_result(self, record: dict) -> None:
        """One scenario result and the stage solves it ran.

        Thread and process workers alike return every result through the
        registry, so its ``stages`` entries (see :func:`~repro.service.
        wire.result_payload`) are the one source of the solve counters
        and the ``solve_*`` histograms.
        """
        keys = [
            "scenarios_total",
            "scenarios_ok" if record.get("status") == "ok" else "scenarios_error",
        ]
        if record.get("cached"):
            keys.append("scenarios_cached")
        solves = [s for s in record.get("stages") or () if isinstance(s, dict)]
        with self._lock:
            for key in keys:
                self._inc_locked(key)
            for solve in solves:
                self._inc_locked("ilp_solves")
                for phase, seconds in solve.get("phases") or ():
                    name = _PHASE_NAME.sub("_", str(phase).lower()) or "unknown"
                    self._observe_locked(f"solve_phase_{name}", float(seconds))
            if solves:
                self._observe_locked(
                    "solve_wall_time", float(record.get("wall_time") or 0.0)
                )

    def _inc_locked(self, name: str, amount: int = 1) -> None:
        # Caller holds the lock.
        self._counters[name] = self._counters.get(name, 0) + amount

    def _observe_locked(self, name: str, value: float) -> None:
        # Caller holds the lock.
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = _Histogram()
        histogram.observe(value)

    # -- live solver progress (trace-era gap gauge) --------------------
    def set_solver_progress(self, job_id: str, progress: dict) -> None:
        """Record a job's latest incumbent/bound/gap while it runs.

        Fed by worker heartbeats, from threads and processes alike;
        cleared when the job finishes so the ``/metrics`` gap section
        only ever shows live solves.
        """
        with self._lock:
            self._solver_progress[job_id] = dict(progress)

    def clear_solver_progress(self, job_id: str) -> None:
        with self._lock:
            self._solver_progress.pop(job_id, None)

    # -- scrape --------------------------------------------------------
    def snapshot(self) -> dict:
        """One consistent view of every counter and histogram."""
        with self._lock:
            return {
                "uptime": time.time() - self._started,
                "counters": dict(self._counters),
                "latency": {
                    name: histogram.snapshot()
                    for name, histogram in self._histograms.items()
                },
                "solver_progress": {
                    job_id: dict(progress)
                    for job_id, progress in self._solver_progress.items()
                },
            }


class LoopLatencyProbe(threading.Thread):
    """Measures scheduler drift: sleep ``interval``, record the overshoot.

    The recorded value is ``max(0, actual - interval)`` in seconds — how
    late a thread that asked for the CPU got it.  On an idle daemon this
    sits at microseconds; when solver threads saturate the GIL or the
    machine, the percentiles climb, which is exactly the "is the event
    loop healthy" signal operators watch.
    """

    def __init__(self, metrics: ServiceMetrics, interval: float = 0.05) -> None:
        super().__init__(name="repro-loop-latency-probe", daemon=True)
        self.metrics = metrics
        self.interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.is_set():
            start = time.monotonic()
            # wait() doubles as the sleep so stop() wakes it immediately.
            if self._stop.wait(timeout=self.interval):
                return
            drift = (time.monotonic() - start) - self.interval
            self.metrics.observe("loop_lag", max(0.0, drift))

    def stop(self) -> None:
        self._stop.set()


#: The observer signature the registry calls with each journal record.
EventObserver = Callable[[dict], None]
