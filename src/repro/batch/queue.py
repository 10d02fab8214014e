"""Scheduling primitives shared by the service: lanes, tokens, backpressure.

Jobs are scheduled in three **priority lanes** (``high``/``normal``/
``batch``) with **aging** between lanes: a job scores ``rank - waited /
aging_interval`` and the lowest score runs next, so every 30 s (by
default) of waiting promotes a job one full priority class.  A ``batch``
job can be passed over by fresh ``high`` work for a while, but never
forever.  :meth:`~repro.service.jobs.JobRegistry.claim` applies the
score at claim time.

A :class:`CancelToken` is the one-way flag a submitter shares with the
code running its job; it doubles as the ``should_cancel`` hook of
:meth:`~repro.batch.engine.BatchMapper.map_all`.  :class:`QueueFull` is
the backpressure signal HTTP fronts turn into ``429 Retry-After``.
"""

from __future__ import annotations

import threading

PRIORITY_HIGH = "high"
PRIORITY_NORMAL = "normal"
PRIORITY_BATCH = "batch"

#: Scheduling lanes, most urgent first (also the tie-break order).
PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_BATCH)

#: Numeric rank per lane; lower runs first.
PRIORITY_RANK = {PRIORITY_HIGH: 0, PRIORITY_NORMAL: 1, PRIORITY_BATCH: 2}

#: Seconds of waiting that promote a job one full priority class.
DEFAULT_AGING_INTERVAL = 30.0


def effective_priority(
    priority: str, waited: float, aging_interval: float = DEFAULT_AGING_INTERVAL
) -> float:
    """The scheduling score of a job that has waited ``waited`` seconds.

    Lower runs first.  A fresh ``high`` job scores 0; a ``batch`` job
    that has waited ``2 * aging_interval`` also scores 0 — aged
    promotion is what makes low-priority starvation impossible.
    """
    rank = PRIORITY_RANK.get(priority, PRIORITY_RANK[PRIORITY_NORMAL])
    return rank - max(0.0, waited) / max(1e-9, aging_interval)


class CancelToken:
    """A one-way cancellation flag shared by submitter and worker.

    Calling the token returns whether it is cancelled, so it plugs
    directly into ``should_cancel=`` hooks.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __call__(self) -> bool:
        return self._event.is_set()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"CancelToken({state})"


class QueueFull(RuntimeError):
    """Submission rejected: the service is at its bounded depth.

    Carries an optional ``retry_after`` hint (seconds) that HTTP fronts
    forward as a ``Retry-After`` header — backpressure, not failure.
    """

    def __init__(
        self, message: str = "queue is full", retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
