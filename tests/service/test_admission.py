"""Per-client admission control: token buckets, quotas, HTTP 429 path."""

from __future__ import annotations

import threading

import pytest

from repro.dse.explorer import Explorer
from repro.service.admission import AdmissionController, AdmissionDenied
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import MappingService, make_server, run_server

pytestmark = pytest.mark.service


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_throttle_with_exact_retry_after(self):
        clock = FakeClock()
        control = AdmissionController(rate=1.0, burst=2.0, clock=clock)
        control.admit("a")
        control.admit("a")
        with pytest.raises(AdmissionDenied) as info:
            control.admit("a")
        assert info.value.reason == "rate"
        assert info.value.client == "a"
        # An empty bucket refills at 1 token/s: the hint is exact.
        assert info.value.retry_after == pytest.approx(1.0)

    def test_refill_restores_admission(self):
        clock = FakeClock()
        control = AdmissionController(rate=2.0, burst=1.0, clock=clock)
        control.admit("a")
        with pytest.raises(AdmissionDenied):
            control.admit("a")
        clock.advance(0.5)  # one token at 2/s
        control.admit("a")

    def test_buckets_are_per_client(self):
        control = AdmissionController(rate=1.0, burst=1.0, clock=FakeClock())
        control.admit("greedy")
        with pytest.raises(AdmissionDenied):
            control.admit("greedy")
        control.admit("quiet")  # untouched bucket, sails through

    def test_no_rate_means_unlimited(self):
        control = AdmissionController(clock=FakeClock())
        for _ in range(100):
            control.admit("a")
        assert control.in_flight("a") == 100


class TestInFlightQuota:
    def test_cap_then_release_reopens(self):
        control = AdmissionController(max_in_flight=2, clock=FakeClock())
        control.admit("a")
        control.admit("a")
        with pytest.raises(AdmissionDenied) as info:
            control.admit("a")
        assert info.value.reason == "in_flight"
        assert info.value.retry_after is None  # service fills the hint
        control.release("a")
        control.admit("a")

    def test_restore_charges_quota_but_not_counters(self):
        control = AdmissionController(max_in_flight=1, clock=FakeClock())
        control.restore("a")  # a replayed unfinished job
        with pytest.raises(AdmissionDenied):
            control.admit("a")
        snapshot = control.snapshot()
        assert snapshot["clients"]["a"]["admitted"] == 0
        assert snapshot["clients"]["a"]["in_flight"] == 1

    def test_release_never_goes_negative(self):
        control = AdmissionController(clock=FakeClock())
        control.release("never-admitted")
        assert control.in_flight("never-admitted") == 0


class TestClientCardinality:
    def test_idle_clients_evicted_at_the_cap(self):
        control = AdmissionController(max_clients=3, clock=FakeClock())
        for index in range(10):
            control.admit(f"spoof-{index}")
            control.release(f"spoof-{index}")
        assert len(control.snapshot()["clients"]) <= 3

    def test_clients_with_in_flight_survive_eviction(self):
        control = AdmissionController(max_clients=2, clock=FakeClock())
        control.admit("busy")  # stays in flight
        for index in range(10):
            control.admit(f"spoof-{index}")
            control.release(f"spoof-{index}")
        assert control.in_flight("busy") == 1

    def test_snapshot_totals_sum_per_client_rows(self):
        control = AdmissionController(
            rate=1.0, burst=1.0, max_in_flight=5, clock=FakeClock()
        )
        control.admit("a")
        with pytest.raises(AdmissionDenied):
            control.admit("a")
        control.admit("b")
        snapshot = control.snapshot()
        clients = snapshot["clients"]
        assert snapshot["admitted"] == sum(c["admitted"] for c in clients.values())
        assert snapshot["throttled"] == sum(
            c["throttled"] for c in clients.values()
        )
        assert snapshot["admitted"] == 2
        assert snapshot["throttled"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(rate=0)
        with pytest.raises(ValueError):
            AdmissionController(burst=0.5)
        with pytest.raises(ValueError):
            AdmissionController(max_in_flight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_clients=0)


@pytest.fixture
def throttled_service():
    """A live daemon whose clients get one submission each, ever."""
    explorer = Explorer(time_limit=5.0)
    service = MappingService(
        explorer,
        admission=AdmissionController(rate=0.001, burst=1.0),
    )
    server = make_server(service, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=run_server, args=(service, server), daemon=True)
    thread.start()
    try:
        yield service, port
    finally:
        server.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()


class TestAdmissionOverHTTP:
    def test_greedy_client_throttled_quiet_client_sails(
        self, throttled_service, tiny_scenario
    ):
        service, port = throttled_service
        url = f"http://127.0.0.1:{port}"
        greedy = ServiceClient(url, timeout=30.0, client="greedy")
        quiet = ServiceClient(url, timeout=30.0, client="quiet")

        first = greedy.submit(scenarios=[tiny_scenario], tier="greedy")
        assert first["client"] == "greedy"
        with pytest.raises(ServiceError) as info:
            greedy.submit(scenarios=[tiny_scenario], tier="greedy")
        assert info.value.status == 429
        assert info.value.retry_after is not None
        assert info.value.retry_after >= 1
        # The 429 is per-client backpressure: another identity goes through.
        assert quiet.submit(scenarios=[tiny_scenario], tier="greedy")["id"]

        metrics = quiet.metrics()
        admission = metrics["admission"]
        assert admission["clients"]["greedy"]["throttled"] == 1
        assert admission["clients"]["quiet"]["admitted"] == 1
        assert metrics["admission_throttled"] == 1
        health = quiet.health()
        assert health["admission"]["throttled"] == 1
        assert set(health["lanes"]) == {"high", "normal", "batch"}

    def test_invalid_client_header_is_a_400(self, throttled_service, tiny_scenario):
        _, port = throttled_service
        bad = ServiceClient(
            f"http://127.0.0.1:{port}", timeout=30.0, client="bad client!"
        )
        with pytest.raises(ServiceError) as info:
            bad.submit(scenarios=[tiny_scenario], tier="greedy")
        assert info.value.status == 400
        assert "client" in str(info.value)
