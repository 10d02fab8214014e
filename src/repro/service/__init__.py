"""Long-lived mapping service over the batch/DSE engines.

The step from CLI sweeps to many concurrent clients: a daemon
(:mod:`~repro.service.daemon`) keeps one shared
:class:`~repro.batch.engine.BatchMapper`, result cache and run store
warm across HTTP job submissions; the wire format
(:mod:`~repro.service.wire`) is the DSE scenario payload, so anything a
sweep can evaluate a client can submit.  :mod:`~repro.service.client`
is the matching stdlib HTTP client, and ``repro serve`` / ``repro
submit`` expose both on the command line.  Every job lives in one
table, :class:`~repro.service.jobs.JobRegistry` — the client view and
the lease state of each job in one record, persisted to one journal.

>>> from repro.service import MappingService, make_server, run_server
>>> server = make_server(MappingService(), port=8100)     # doctest: +SKIP
>>> run_server(server.service, server)                    # doctest: +SKIP
"""

from ..batch.queue import QueueFull
from .client import ServiceClient, ServiceError, StreamInterrupted
from .daemon import (
    MappingService,
    ServiceHTTPServer,
    Supervisor,
    make_server,
    run_server,
)
from .jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_ERROR,
    JOB_QUEUED,
    JOB_RUNNING,
    LEASE_DEAD_LETTER,
    LEASE_FINISHED,
    LEASE_LEASED,
    LEASE_PENDING,
    RESTART_REASON,
    TERMINAL_STATES,
    JobRegistry,
    ServiceJob,
)
from .metrics import JsonlWriter, LoopLatencyProbe, ServiceMetrics, read_jsonl
from .wire import (
    TIERS,
    WIRE_FORMAT,
    JobSpec,
    WireError,
    parse_job,
    result_payload,
)
from .worker import FleetConfig, worker_main

__all__ = [
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_ERROR",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "FleetConfig",
    "JobRegistry",
    "JobSpec",
    "JsonlWriter",
    "LEASE_DEAD_LETTER",
    "LEASE_FINISHED",
    "LEASE_LEASED",
    "LEASE_PENDING",
    "LoopLatencyProbe",
    "MappingService",
    "QueueFull",
    "RESTART_REASON",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "ServiceJob",
    "ServiceMetrics",
    "StreamInterrupted",
    "Supervisor",
    "TERMINAL_STATES",
    "TIERS",
    "WIRE_FORMAT",
    "WireError",
    "make_server",
    "parse_job",
    "read_jsonl",
    "result_payload",
    "run_server",
    "worker_main",
]
