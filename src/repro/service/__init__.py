"""Long-lived mapping service over the batch/DSE engines.

The step from CLI sweeps to many concurrent clients: a daemon
(:mod:`~repro.service.daemon`) keeps one shared
:class:`~repro.batch.engine.BatchMapper` and run store warm across HTTP
job submissions; the wire format
(:mod:`~repro.service.wire`) is the DSE scenario payload, so anything a
sweep can evaluate a client can submit.  :mod:`~repro.service.client`
is the matching stdlib HTTP client, and ``repro serve`` / ``repro
submit`` expose both on the command line.  Every job lives in one
table, :class:`~repro.service.jobs.JobRegistry` — the client view and
the lease state of each job in one record, persisted to one journal
whose lines are on disk before each transition returns.

>>> from repro.service import MappingService, make_server, run_server
>>> server = make_server(MappingService(), port=8100)     # doctest: +SKIP
>>> run_server(server.service, server)                    # doctest: +SKIP
"""

from .._lazy import lazy_exports

# Plain wire constants live here, not in .wire, so ``repro submit`` and
# the client reach them without loading dataclasses (and inspect).

#: Bump when the request/response schema changes incompatibly.
WIRE_FORMAT = 1

#: Client id every unattributed submission is accounted under.
DEFAULT_CLIENT = "anonymous"

#: Job statuses a stream/poll ends on (client-visible terminal states).
TERMINAL_STATUSES = ("done", "error", "cancelled", "deadline", "shed")

_EXPORTS = {
    "QueueFull": "..batch.queue",
    "ServiceClient": ".client",
    "ServiceError": ".client",
    "StreamInterrupted": ".client",
    "MappingService": ".daemon",
    "ServiceHTTPServer": ".daemon",
    "Supervisor": ".daemon",
    "make_server": ".daemon",
    "run_server": ".daemon",
    "JOB_CANCELLED": ".jobs",
    "JOB_DONE": ".jobs",
    "JOB_ERROR": ".jobs",
    "JOB_QUEUED": ".jobs",
    "JOB_RUNNING": ".jobs",
    "LEASE_DEAD_LETTER": ".jobs",
    "LEASE_FINISHED": ".jobs",
    "LEASE_LEASED": ".jobs",
    "LEASE_PENDING": ".jobs",
    "RESTART_REASON": ".jobs",
    "TERMINAL_STATES": ".jobs",
    "JobRegistry": ".jobs",
    "ServiceJob": ".jobs",
    "LoopLatencyProbe": ".metrics",
    "ServiceMetrics": ".metrics",
    "read_jsonl": "..jsonlio",
    "TIERS": ".wire",
    "JobSpec": ".wire",
    "WireError": ".wire",
    "parse_job": ".wire",
    "result_payload": ".wire",
    "FleetConfig": ".worker",
    "worker_main": ".worker",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_ERROR",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "FleetConfig",
    "JobRegistry",
    "JobSpec",
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
