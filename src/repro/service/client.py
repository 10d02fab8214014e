"""Stdlib HTTP client for the mapping daemon.

A thin :mod:`urllib.request` wrapper speaking the :mod:`.wire` format —
usable from scripts, tests and the ``repro submit`` CLI without any new
dependency:

>>> client = ServiceClient("http://127.0.0.1:8100")      # doctest: +SKIP
>>> job = client.submit(scenarios=[scenario])             # doctest: +SKIP
>>> for event in client.stream(job["id"]):                # doctest: +SKIP
...     print(event["event"])
>>> done = client.wait(job["id"])                         # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from ..batch.queue import PRIORITY_NORMAL
from ..dse import TIER_ILP
from ..trace import TRACE_HEADER
from . import DEFAULT_CLIENT, TERMINAL_STATUSES, WIRE_FORMAT

if TYPE_CHECKING:
    from ..dse.scenario import Scenario


class ServiceError(RuntimeError):
    """An HTTP-level failure, carrying the server's error body if any."""

    def __init__(
        self,
        message: str,
        status: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        #: The server's ``Retry-After`` hint in seconds (429 responses).
        self.retry_after = retry_after
        #: Seconds the client-side retry loop *would* wait next — the
        #: max of the server hint and jittered backoff — so callers can
        #: print an actionable "retry in Ns" when retries are exhausted.
        self.suggested_wait: float | None = None


class StreamInterrupted(ServiceError):
    """A job stream dropped before delivering a terminal event.

    The job itself is most likely still running (or finished) on the
    daemon — only the *watch* broke.  Callers should fall back to
    polling ``GET /jobs/<id>`` rather than assuming the job is lost.
    """


class ServiceClient:
    """One daemon endpoint: submit, poll, stream, cancel, shut down.

    ``max_retries`` opts into resilience (default 0 keeps the original
    fail-fast behavior): idempotent GETs retry on transient connection
    errors with capped exponential backoff + jitter, and ``submit``
    retries a 429 after honoring the server's ``Retry-After`` hint.
    Non-idempotent requests never retry on *connection* errors — a
    submit whose response got lost may still have been accepted.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_retries: int = 0,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        client: str = DEFAULT_CLIENT,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        #: Client identity, sent as ``X-Repro-Client`` on every request
        #: (the daemon's per-client quotas are keyed on it).
        self.client = client

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> float:
        """Capped exponential backoff with full jitter for ``attempt``."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2**attempt))
        return ceiling * random.random()

    def _open(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ):
        data = None
        headers = {"Accept": "application/json", **(headers or {})}
        if self.client and self.client != DEFAULT_CLIENT:
            headers["X-Repro-Client"] = self.client
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            return urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                pass
            retry_after = None
            raw_retry = exc.headers.get("Retry-After") if exc.headers else None
            if raw_retry is not None:
                try:
                    retry_after = float(raw_retry)
                except ValueError:
                    pass
            message = f"{method} {path} failed: HTTP {exc.code}"
            if detail:
                message += f" ({detail})"
            raise ServiceError(
                message, status=exc.code, retry_after=retry_after
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(f"{method} {path} failed: {exc.reason}") from None

    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> dict:
        retries = self.max_retries if method == "GET" else 0
        attempt = 0
        while True:
            try:
                with self._open(method, path, payload, headers) as response:
                    return json.loads(response.read().decode("utf-8"))
            except ServiceError as exc:
                # Only *connection-level* trouble retries (no status):
                # an HTTP error is the server's deliberate answer.
                if exc.status is not None or attempt >= retries:
                    raise
                time.sleep(self._backoff(attempt))
                attempt += 1

    # ------------------------------------------------------------------
    def submit(
        self,
        scenarios: Iterable[Scenario] | None = None,
        payload: dict | None = None,
        tier: str = TIER_ILP,
        time_limit: float | None = None,
        priority: str = PRIORITY_NORMAL,
        deadline_ms: int | None = None,
        trace: str | None = None,
    ) -> dict:
        """Submit scenarios (or a raw wire ``payload``); returns the 202 body.

        ``trace`` is an encoded trace context (or bare trace id) sent as
        the ``X-Repro-Trace`` header — the daemon adopts it instead of
        minting one, so a caller can stitch the job into its own trace.
        """
        if (scenarios is None) == (payload is None):
            raise ValueError("pass exactly one of scenarios= or payload=")
        if payload is None:
            assert scenarios is not None
            from .wire import JobSpec

            payload = JobSpec(
                scenarios=tuple(scenarios),
                tier=tier,
                time_limit=time_limit,
                priority=priority,
                deadline_ms=deadline_ms,
            ).payload()
        else:
            payload = {"format": WIRE_FORMAT, **payload}
        headers = {TRACE_HEADER: trace} if trace else None
        attempt = 0
        while True:
            try:
                return self._request("POST", "/jobs", payload, headers)
            except ServiceError as exc:
                # Backpressure is explicitly retryable — a 429 means the
                # job was NOT accepted, so resubmitting cannot duplicate
                # it.  The wait is max(server hint, jittered backoff):
                # the hint alone would hammer the server in lockstep
                # with every other 429'd client, the backoff alone would
                # retry before the server said there could be room.
                if exc.status != 429:
                    raise
                wait = max(exc.retry_after or 0.0, self._backoff(attempt))
                exc.suggested_wait = wait
                if attempt >= self.max_retries:
                    raise
                time.sleep(wait)
                attempt += 1

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def metrics(self) -> dict:
        return self._request("GET", "/metrics")

    def trace(self, job_id: str) -> dict:
        """The job's span records from every process (``GET /jobs/<id>/trace``)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def cancel(self, job_id: str) -> dict:
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def shutdown(self) -> dict:
        return self._request("POST", "/shutdown")

    # ------------------------------------------------------------------
    def wait(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job reaches a terminal state; return its detail.

        Follows ``GET /jobs/<id>/stream`` to the terminal event, then
        makes one ``GET /jobs/<id>`` — the answer arrives as soon as the
        daemon publishes it, with no polling interval to wait out.  A
        watch that breaks (the stream drops, or its connection is
        refused) is reopened under the ``max_retries``/backoff rule;
        once retries run out the last error is raised, a drop as
        :class:`StreamInterrupted`.  ``timeout`` bounds the whole wait:
        past it, :class:`ServiceError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        attempt = 0
        while True:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                for _ in self.stream(job_id, timeout=remaining):
                    pass
            except ServiceError as exc:
                # Only a broken watch retries: an HTTP status is the
                # server's answer, and an expired deadline is final.
                expired = deadline is not None and time.monotonic() > deadline
                if exc.status is not None or expired or attempt >= self.max_retries:
                    raise
                time.sleep(self._backoff(attempt))
                attempt += 1
                continue
            return self.job(job_id)

    def stream(
        self,
        job_id: str,
        keepalives: bool = False,
        timeout: float | None = None,
    ) -> Iterator[dict]:
        """Yield the job's NDJSON events until the server ends the stream.

        ``ping`` keepalive events are filtered out unless ``keepalives``
        is true.  The generator finishes when the job does.  ``timeout``
        is a wall-clock deadline for the whole stream: the server's
        heartbeats defeat the socket's idle timeout by design, so a
        stuck job would otherwise stream pings forever.  Checked per
        received line (heartbeats bound the gap), raising
        :class:`ServiceError` once exceeded.

        A stream that breaks mid-job — the connection drops, or the body
        ends before a terminal event (any of
        :data:`~repro.service.wire.TERMINAL_STATUSES`) — raises
        :class:`StreamInterrupted`: the job is probably still
        running server-side, so callers should re-poll, not give up.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        terminal = False
        try:
            with self._open("GET", f"/jobs/{job_id}/stream") as response:
                for line in response:
                    if deadline is not None and time.monotonic() > deadline:
                        raise ServiceError(
                            f"stream of job {job_id} exceeded {timeout}s"
                        )
                    line = line.strip()
                    if not line:
                        continue
                    event = json.loads(line.decode("utf-8"))
                    if event.get("event") in TERMINAL_STATUSES:
                        terminal = True
                    if event.get("event") == "ping" and not keepalives:
                        continue
                    yield event
        except (OSError, ValueError, http.client.HTTPException) as exc:
            # ConnectionReset/IncompleteRead/torn JSON line: the watch
            # broke, not (necessarily) the job.
            raise StreamInterrupted(
                f"stream of job {job_id} dropped mid-job: {exc}"
            ) from None
        if not terminal:
            raise StreamInterrupted(
                f"stream of job {job_id} ended without a terminal event "
                "(daemon went away mid-job?)"
            )
