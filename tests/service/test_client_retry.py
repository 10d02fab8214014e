"""ServiceClient resilience: retries, backoff, 429 handling, stream drops.

Unit-level: ``_open`` is stubbed so every failure mode is deterministic
(no sockets, no sleeping — ``time.sleep`` is captured, not served).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.service.client import ServiceClient, ServiceError, StreamInterrupted

pytestmark = pytest.mark.service


class _Response:
    """Just enough of an HTTP response: context manager + read()/lines."""

    def __init__(self, payload=None, lines=None, explode_after=None):
        self._body = json.dumps(payload or {}).encode()
        self._lines = [
            json.dumps(line).encode() + b"\n" for line in (lines or [])
        ]
        self._explode_after = explode_after

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        return self._body

    def __iter__(self):
        for index, line in enumerate(self._lines):
            if self._explode_after is not None and index >= self._explode_after:
                raise ConnectionResetError("peer went away")
            yield line


def _client(monkeypatch, script, **kwargs):
    """A client whose ``_open`` pops canned outcomes off ``script``.

    Entries are either exceptions (raised) or ``_Response``s (returned);
    sleeps are recorded instead of slept.
    """
    client = ServiceClient("http://stub", **kwargs)
    calls = []
    sleeps = []

    def fake_open(method, path, payload=None, headers=None):
        calls.append((method, path))
        outcome = script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(client, "_open", fake_open)
    monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
    return client, calls, sleeps


# ----------------------------------------------------------------------
class TestGetRetries:
    def test_transient_connection_errors_retry_until_success(self, monkeypatch):
        script = [
            ServiceError("GET /jobs failed: refused"),
            ServiceError("GET /jobs failed: reset"),
            _Response({"jobs": []}),
        ]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=2)
        assert client.jobs() == []
        assert len(calls) == 3
        assert len(sleeps) == 2

    def test_http_errors_never_retry(self, monkeypatch):
        script = [ServiceError("boom", status=500)]
        client, calls, _ = _client(monkeypatch, script, max_retries=5)
        with pytest.raises(ServiceError):
            client.job("j1")
        assert len(calls) == 1

    def test_default_client_stays_fail_fast(self, monkeypatch):
        script = [ServiceError("refused")]
        client, calls, _ = _client(monkeypatch, script)
        with pytest.raises(ServiceError):
            client.health()
        assert len(calls) == 1

    def test_retries_exhausted_raises_last_error(self, monkeypatch):
        script = [ServiceError(f"refused #{i}") for i in range(3)]
        client, calls, _ = _client(monkeypatch, script, max_retries=2)
        with pytest.raises(ServiceError, match="#2"):
            client.metrics()
        assert len(calls) == 3

    def test_posts_never_retry_connection_errors(self, monkeypatch):
        # A cancel whose response got lost may still have landed —
        # resending it is not the client's call to make.
        script = [ServiceError("reset mid-flight")]
        client, calls, _ = _client(monkeypatch, script, max_retries=3)
        with pytest.raises(ServiceError):
            client.cancel("j1")
        assert len(calls) == 1


class TestSubmitBackpressure:
    def test_429_retries_honoring_retry_after(self, monkeypatch):
        script = [
            ServiceError("full", status=429, retry_after=7.0),
            _Response({"id": "job-1", "scenarios": 1, "status": "queued"}),
        ]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=1)
        accepted = client.submit(payload={"scenarios": []})
        assert accepted["id"] == "job-1"
        assert sleeps == [7.0]  # the server's hint wins over backoff

    def test_429_without_hint_uses_backoff(self, monkeypatch):
        script = [
            ServiceError("full", status=429),
            _Response({"id": "job-2", "scenarios": 1, "status": "queued"}),
        ]
        client, _, sleeps = _client(monkeypatch, script, max_retries=1)
        client.submit(payload={"scenarios": []})
        assert len(sleeps) == 1
        assert 0.0 <= sleeps[0] <= client.backoff_base

    def test_429_beyond_budget_raises(self, monkeypatch):
        script = [ServiceError("full", status=429, retry_after=1.0)] * 2
        client, calls, _ = _client(monkeypatch, script, max_retries=1)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload={"scenarios": []})
        assert excinfo.value.status == 429
        assert len(calls) == 2

    def test_other_http_errors_do_not_retry(self, monkeypatch):
        script = [ServiceError("bad spec", status=400)]
        client, calls, _ = _client(monkeypatch, script, max_retries=3)
        with pytest.raises(ServiceError):
            client.submit(payload={"scenarios": []})
        assert len(calls) == 1


class TestBackoff:
    def test_backoff_is_capped_and_jittered(self):
        client = ServiceClient("http://stub", backoff_base=1.0, backoff_cap=4.0)
        for attempt in range(8):
            ceiling = min(4.0, 1.0 * (2**attempt))
            for _ in range(10):
                assert 0.0 <= client._backoff(attempt) <= ceiling

    def test_negative_max_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("http://stub", max_retries=-1)


class TestStreamInterruption:
    def test_connection_drop_mid_stream_raises_stream_interrupted(
        self, monkeypatch
    ):
        script = [
            _Response(
                lines=[{"event": "queued"}, {"event": "running"}],
                explode_after=2,
            )
        ]
        client, _, _ = _client(monkeypatch, script)
        events = []
        with pytest.raises(StreamInterrupted):
            for event in client.stream("j1"):
                events.append(event)
        assert [e["event"] for e in events] == ["queued", "running"]

    def test_stream_ending_without_terminal_event_raises(self, monkeypatch):
        script = [_Response(lines=[{"event": "queued"}, {"event": "running"}])]
        client, _, _ = _client(monkeypatch, script)
        with pytest.raises(StreamInterrupted, match="without a terminal event"):
            list(client.stream("j1"))

    def test_terminal_stream_is_not_interrupted(self, monkeypatch):
        script = [
            _Response(lines=[{"event": "queued"}, {"event": "done"}])
        ]
        client, _, _ = _client(monkeypatch, script)
        events = list(client.stream("j1"))
        assert [e["event"] for e in events] == ["queued", "done"]

    def test_stream_interrupted_is_a_service_error(self):
        # So existing `except ServiceError` callers keep catching drops.
        assert issubclass(StreamInterrupted, ServiceError)


class TestStreamDrivenWait:
    """``wait`` follows the job stream, then reads the detail once."""

    DETAIL = {"id": "j1", "status": "done", "results": []}

    @staticmethod
    def _dropped():
        return _Response(
            lines=[{"event": "queued"}, {"event": "running"}], explode_after=1
        )

    def test_terminal_stream_then_one_detail_get(self, monkeypatch):
        script = [
            _Response(lines=[{"event": "queued"}, {"event": "done"}]),
            _Response(self.DETAIL),
        ]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=3)
        assert client.wait("j1") == self.DETAIL
        assert calls == [("GET", "/jobs/j1/stream"), ("GET", "/jobs/j1")]
        assert sleeps == []

    def test_dropped_stream_is_reopened(self, monkeypatch):
        script = [
            self._dropped(),
            _Response(lines=[{"event": "running"}, {"event": "done"}]),
            _Response(self.DETAIL),
        ]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=1)
        assert client.wait("j1") == self.DETAIL
        assert calls == [("GET", "/jobs/j1/stream")] * 2 + [("GET", "/jobs/j1")]
        assert len(sleeps) == 1

    def test_drops_beyond_max_retries_raise_stream_interrupted(self, monkeypatch):
        script = [self._dropped() for _ in range(3)]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=2)
        with pytest.raises(StreamInterrupted):
            client.wait("j1")
        assert calls == [("GET", "/jobs/j1/stream")] * 3
        assert len(sleeps) == 2

    def test_no_retries_raises_at_once(self, monkeypatch):
        script = [self._dropped()]
        client, calls, sleeps = _client(monkeypatch, script)
        with pytest.raises(StreamInterrupted):
            client.wait("j1")
        assert len(calls) == 1
        assert sleeps == []

    def test_refused_stream_retries_like_a_get(self, monkeypatch):
        script = [
            ServiceError("GET /jobs/j1/stream failed: refused"),
            _Response(lines=[{"event": "done"}]),
            _Response(self.DETAIL),
        ]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=1)
        assert client.wait("j1") == self.DETAIL
        assert len(calls) == 3
        assert len(sleeps) == 1

    def test_http_error_on_stream_does_not_retry(self, monkeypatch):
        script = [ServiceError("unknown job", status=404)]
        client, calls, _ = _client(monkeypatch, script, max_retries=3)
        with pytest.raises(ServiceError) as excinfo:
            client.wait("j1")
        assert excinfo.value.status == 404
        assert len(calls) == 1

    def test_stream_past_timeout_raises_service_error(self, monkeypatch):
        # Every clock read advances one second: the 2.5 s budget runs
        # out on the second streamed line, and no retry follows.
        ticks = iter(range(1000))
        script = [_Response(lines=[{"event": "ping"}] * 10)]
        client, calls, sleeps = _client(monkeypatch, script, max_retries=3)
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: float(next(ticks))
        )
        with pytest.raises(ServiceError, match="exceeded") as excinfo:
            client.wait("j1", timeout=2.5)
        assert not isinstance(excinfo.value, StreamInterrupted)
        assert len(calls) == 1
        assert sleeps == []
