"""The service wire format: JSON job submissions and result payloads.

A client submits a job as one JSON object::

    {
      "format": 1,
      "scenario":  { ... Scenario.payload() ... },   # single scenario, or
      "scenarios": [ { ... }, ... ],                  # an ordered batch
      "tier": "ilp" | "greedy",                       # default "ilp"
      "time_limit": 10.0,                             # per-stage seconds
      "priority": "high" | "normal" | "batch",        # default "normal"
      "deadline_ms": 30000,                           # end-to-end budget
      "client": "team-a"                              # usually via header
    }

Scenario payloads are exactly what :meth:`repro.dse.scenario.Scenario.
payload` emits (and what the run store records), so anything the DSE
layer can sweep, a client can submit — the wire format is the scenario
registry's plain-data view, not a second schema.

Client identity normally rides the ``X-Repro-Client`` HTTP header (the
header wins over a ``client`` body key); it lives in the spec too so a
fleet re-queue or a journal replay keeps the job attributed to its
submitter.  ``deadline_ms`` is relative to submission: the absolute
deadline is ``submitted_at + deadline_ms / 1000`` wherever the job
travels.

Parsing is strict: unknown keys, malformed sections and invalid axis
values raise :class:`WireError` with a human-readable message that HTTP
handlers return verbatim as a 400 body — an unknown ``priority`` or a
negative/absurd ``deadline_ms`` fails at submit, never later as a
worker failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..batch.queue import PRIORITIES, PRIORITY_NORMAL
from ..dse import TIER_GREEDY, TIER_ILP
from ..trace.context import valid_encoded as _valid_trace
from . import DEFAULT_CLIENT, TERMINAL_STATUSES, WIRE_FORMAT

if TYPE_CHECKING:
    from ..dse.explorer import ScenarioResult
    from ..dse.scenario import Scenario

TIERS = (TIER_ILP, TIER_GREEDY)

#: Ceiling on ``deadline_ms``: anything past a day is a config error,
#: not a deadline — reject it at submit instead of scheduling it.
MAX_DEADLINE_MS = 24 * 60 * 60 * 1000

_JOB_KEYS = {
    "format",
    "scenario",
    "scenarios",
    "tier",
    "time_limit",
    "priority",
    "deadline_ms",
    "client",
    "trace",
}

_CLIENT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class WireError(ValueError):
    """A malformed submission (maps to HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One parsed submission: scenarios to score at a tier."""

    scenarios: tuple[Scenario, ...]
    tier: str = TIER_ILP
    time_limit: float | None = None
    priority: str = PRIORITY_NORMAL
    deadline_ms: int | None = None
    client: str = DEFAULT_CLIENT
    #: Encoded trace context (``trace_id:span_id``), usually minted at
    #: accept from the ``X-Repro-Trace`` header.  Living in the spec means
    #: a fleet re-queue or journal replay keeps the job's trace identity.
    trace: str | None = None

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise WireError("a job needs at least one scenario")
        if self.tier not in TIERS:
            raise WireError(f"unknown tier {self.tier!r}; choose from {TIERS}")
        if self.time_limit is not None and self.time_limit <= 0:
            raise WireError("time_limit must be positive")
        if self.priority not in PRIORITIES:
            raise WireError(
                f"unknown priority {self.priority!r}; choose from {PRIORITIES}"
            )
        if self.deadline_ms is not None:
            if (
                isinstance(self.deadline_ms, bool)
                or not isinstance(self.deadline_ms, int)
            ):
                raise WireError(
                    "deadline_ms must be an integer number of milliseconds, "
                    f"got {self.deadline_ms!r}"
                )
            if self.deadline_ms <= 0:
                raise WireError(
                    f"deadline_ms must be positive, got {self.deadline_ms}"
                )
            if self.deadline_ms > MAX_DEADLINE_MS:
                raise WireError(
                    f"deadline_ms {self.deadline_ms} exceeds the "
                    f"{MAX_DEADLINE_MS} ms (24 h) ceiling"
                )
        if not isinstance(self.client, str) or not _CLIENT_PATTERN.match(
            self.client
        ):
            raise WireError(
                "client must be 1-64 characters of [A-Za-z0-9._-] "
                f"starting alphanumeric, got {self.client!r}"
            )
        if self.trace is not None and (
            not isinstance(self.trace, str) or not _valid_trace(self.trace)
        ):
            raise WireError(
                "trace must be '<trace-id>:<span-id>' (lowercase hex), "
                f"got {self.trace!r}"
            )

    def payload(self) -> dict:
        """The submission body that parses back into this spec.

        Default-valued fields are omitted, so pre-existing payloads (and
        everything journaled before these fields existed) stay
        bit-identical.
        """
        body: dict = {
            "format": WIRE_FORMAT,
            "scenarios": [scenario.payload() for scenario in self.scenarios],
            "tier": self.tier,
        }
        if self.time_limit is not None:
            body["time_limit"] = self.time_limit
        if self.priority != PRIORITY_NORMAL:
            body["priority"] = self.priority
        if self.deadline_ms is not None:
            body["deadline_ms"] = self.deadline_ms
        if self.client != DEFAULT_CLIENT:
            body["client"] = self.client
        if self.trace is not None:
            body["trace"] = self.trace
        return body


def parse_job(payload: object) -> JobSpec:
    """Parse one ``POST /jobs`` body into a :class:`JobSpec`."""
    from ..dse.scenario import scenario_from_payload

    if not isinstance(payload, dict):
        raise WireError(f"job submission must be a JSON object, got {payload!r}")
    unknown = set(payload) - _JOB_KEYS
    if unknown:
        raise WireError(f"unknown submission keys {sorted(unknown)}")
    fmt = payload.get("format", WIRE_FORMAT)
    if fmt != WIRE_FORMAT:
        raise WireError(f"unsupported wire format {fmt!r} (this server: {WIRE_FORMAT})")
    # An explicit null is treated as absent, so {"scenarios": null} fails
    # the exclusivity check instead of crashing the handler.
    single = payload.get("scenario")
    many = payload.get("scenarios")
    if (single is None) == (many is None):
        raise WireError("submit exactly one of 'scenario' or 'scenarios'")
    raw = many if many is not None else [single]
    if not isinstance(raw, list):
        raise WireError(f"'scenarios' must be a list, got {raw!r}")
    scenarios = []
    for position, entry in enumerate(raw):
        try:
            scenarios.append(scenario_from_payload(entry))
        except ValueError as exc:
            raise WireError(f"scenario[{position}]: {exc}") from None
    time_limit = payload.get("time_limit")
    if time_limit is not None:
        try:
            time_limit = float(time_limit)
        except (TypeError, ValueError):
            raise WireError(f"time_limit must be a number, got {time_limit!r}") from None
    priority = payload.get("priority", PRIORITY_NORMAL)
    if not isinstance(priority, str):
        raise WireError(
            f"priority must be one of {PRIORITIES}, got {priority!r}"
        )
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None and isinstance(deadline_ms, float):
        # JSON decoders may hand an integral float; a fractional one is
        # a caller bug worth naming, not silently truncating.
        if not deadline_ms.is_integer():
            raise WireError(
                "deadline_ms must be an integer number of milliseconds, "
                f"got {deadline_ms!r}"
            )
        deadline_ms = int(deadline_ms)
    try:
        return JobSpec(
            scenarios=tuple(scenarios),
            tier=payload.get("tier", TIER_ILP),
            time_limit=time_limit,
            priority=priority,
            deadline_ms=deadline_ms,
            client=payload.get("client", DEFAULT_CLIENT),
            trace=payload.get("trace"),
        )
    except WireError:
        raise
    except ValueError as exc:  # a spec's own validation
        raise WireError(str(exc)) from None


def result_payload(result: ScenarioResult) -> dict:
    """One scenario result as a wire/stream dict.

    ``cached`` is true when the evaluation cost zero new solves because a
    shared component already knew the answer — the run store (resume) or
    the batch engine's result cache.  ``stages`` lists the stage solves
    this evaluation ran (see :class:`~repro.dse.explorer.ScenarioResult`),
    each with its backend, status, objective, bound, node count and
    phase timings; it is how ``/metrics`` counts solves in both worker
    modes.
    """
    return {
        "scenario": result.scenario.name,
        "fingerprint": result.fingerprint,
        "tier": result.tier,
        "status": result.status,
        "objectives": result.objectives.as_dict() if result.objectives else None,
        "assignment": (
            {str(i): j for i, j in sorted(result.assignment.items())}
            if result.assignment is not None
            else None
        ),
        "solves": result.solves,
        "stages": list(result.stages),
        # Greedy evaluations never solve, so zero solves only signals a
        # cache/store hit at the ILP tier.
        "cached": bool(
            result.from_store
            or (result.tier == TIER_ILP and result.ok and result.solves == 0)
        ),
        "wall_time": result.wall_time,
        "error": result.error,
    }
