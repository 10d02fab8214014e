"""Shared fixtures for the service suite: one in-process daemon per test."""

from __future__ import annotations

import threading
import time

import pytest

from repro.dse.explorer import Explorer
from repro.dse.scenario import (
    ArchitectureSpec,
    FormulationSpec,
    Scenario,
    WorkloadSpec,
)
from repro.service.client import ServiceClient
from repro.service.daemon import MappingService, make_server, run_server
from repro.service.jobs import ServiceJob


def _wait_drained(
    service: MappingService, job: ServiceJob | str, timeout: float = 90.0
) -> ServiceJob:
    """Block on the registry's event feed until ``job`` has drained.

    Drained means terminal with every event delivered — the same
    end-of-stream condition ``GET /jobs/<id>/stream`` uses — so the wait
    wakes on the finishing event itself instead of polling.
    """
    registry = service.registry
    if isinstance(job, str):
        job_id, job = job, registry.get(job)
        assert job is not None, f"no such job {job_id!r}"
    deadline = time.monotonic() + timeout
    index = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            pytest.fail(f"job {job.id} still {job.status} after {timeout}s")
        _, index, drained = registry.events_since(job, index, timeout=remaining)
        if drained:
            return job


@pytest.fixture
def wait_drained():
    """The :func:`_wait_drained` helper: ``wait_drained(service, job)``."""
    return _wait_drained


@pytest.fixture
def tiny_scenario() -> Scenario:
    """A scenario whose area ILP solves in well under a second."""
    return Scenario(
        architecture=ArchitectureSpec(kind="homogeneous", dimension=12),
        workload=WorkloadSpec(network="C", scale=0.1, profile="uniform"),
        formulation=FormulationSpec(stages=("area",)),
    )


@pytest.fixture
def live_service():
    """A running daemon on a free port; yields (service, client)."""
    explorer = Explorer(time_limit=5.0)
    service = MappingService(explorer)
    server = make_server(service, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=run_server, args=(service, server), daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=60.0)
    try:
        yield service, client
    finally:
        server.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive()
