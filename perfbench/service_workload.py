"""``service-fleet``: one closed-loop caller against ``repro serve --fleet 2``.

The daemon runs in a subprocess with a fresh run store, journal and
ledger, and two worker processes.  One persistent
:class:`ServiceClient` submits a seeded stream in blocks of eight
requests: one fresh scenario, six repeats of scenarios already answered
(store hits) and one repeat sent through a fresh ``repro submit``
process.  The fresh scenarios come in rounds; each round is the whole
catalogue (every Table-I twin at scale 0.08 x {Table-II het, 16x16
homogeneous}, mapped area+snu under a hotspot profile), later rounds in
the seed's order, and round ``r`` simulates its profile with seed ``r``
so it never hits the store.  The seed also picks which answered
scenarios are repeated.  A run lasts ``--seconds``, at least 100
requests and at least until every round-0 scenario has been sent once;
quality figures sum over the round-0 answers.  A stream still short of
that after ``STREAM_LIMIT_S`` raises :class:`TimeoutError`.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from contextlib import nullcontext

from common import (
    ROOT,
    CheckError,
    architecture_slots,
    check_mapping,
    child_env,
    dominates,
    hypervolume,
    import_seconds,
    median,
    network_preds,
    peak_rss_mb,
    tail,
    workdir,
)

TWINS = ("A", "B", "C", "D", "E")
SCALE = 0.08
STAGES = ("area", "snu")
#: One block of the request stream: F fresh, H store hit, C CLI store hit.
#: With 75% hits the median sits two thirds into the hits, clear of their
#: noisy upper end, and p90 and above land among the CLI requests.
BLOCK = "FHHHCHHH"
#: Enough requests that the tail is p90 or higher, which lands among the
#: CLI requests; p75 would pick one of a few uneven fresh solves.
MIN_REQUESTS = 100
SETUP_REPEATS = 3
FLEET_SIZE = 2
STAGE_TIME_LIMIT = 30.0
REQUEST_TIMEOUT = 45.0
#: Hard cap on the request stream, so a dead or stuck daemon ends the run
#: well inside its time budget (a healthy stream takes about 35 s).
STREAM_LIMIT_S = 100.0
#: Worker span name in a job trace -> the per-layer metric family it feeds.
_PHASE_FAMILIES = {
    "phase:build": "mapping.build_s",
    "phase:lower": "ilp.lower_s",
    "phase:solve": "ilp.solve_s",
}
_LISTENING = re.compile(r"listening on (http://\S+)")
_SUBMITTED = re.compile(r"submitted (\S+)")


def catalogue():
    from repro.dse import ArchitectureSpec

    pools = (
        ArchitectureSpec(kind="heterogeneous"),
        ArchitectureSpec(kind="homogeneous", dimension=16),
    )
    return [(twin, pool) for twin in TWINS for pool in pools]


def fresh_scenarios(seed: int):
    """Endless fresh scenarios: round r > 0 is the catalogue in a seeded order.

    Round 0 keeps the catalogue order: the daemon warm-starts each solve
    from the last answer for the same network and pool, so the order of
    first visits picks which of several equal-area placements the route
    stage starts from, and the round-0 quality sums must not move with
    the seed.
    """
    from repro.dse import FormulationSpec, Scenario, WorkloadSpec

    rng = random.Random(seed)
    base = catalogue()
    round_index = 0
    while True:
        order = list(base)
        if round_index:
            rng.shuffle(order)
        for twin, pool in order:
            yield round_index, Scenario(
                architecture=pool,
                workload=WorkloadSpec(
                    network=twin, scale=SCALE, profile="hotspot", seed=round_index
                ),
                formulation=FormulationSpec(stages=STAGES),
            )
        round_index += 1


# ----------------------------------------------------------------------
# daemon lifecycle
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve --fleet`` subprocess with its own store, journal and ledger.

    ``job_traces`` turns on the daemon's own span journal, whose per-job
    traces carry the workers' per-stage solve phases; only a traced run
    asks for it.
    """

    def __init__(self, scratch, tag: str, job_traces: bool) -> None:
        from repro.service.client import ServiceClient

        self.log_path = scratch / f"{tag}.log"
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--store", str(scratch / f"{tag}-store.jsonl"),
            "--journal", str(scratch / f"{tag}-journal.jsonl"),
            "--time-limit", str(STAGE_TIME_LIMIT),
            "--fleet", str(FLEET_SIZE),
            "--ledger", str(scratch / f"{tag}-ledger.jsonl"),
        ]
        if job_traces:
            command += ["--trace-dir", str(scratch / f"{tag}-trace")]
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=child_env(),
                cwd=ROOT,
                start_new_session=True,
            )
        try:
            self.url = self._wait_for_url()
            self.client = ServiceClient(self.url, timeout=REQUEST_TIMEOUT)
            self._wait(lambda health: True)
            healthy = time.perf_counter()
            self._wait(lambda health: all(w["ready"] for w in health["fleet"]["workers"]))
        except BaseException:
            self.kill()
            raise
        ready = time.perf_counter()
        self.setup_s = ready - start
        self.fleet_ready_s = ready - healthy

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited: {self.log_path.read_text()}")
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                return match.group(1)
            time.sleep(0.005)
        raise TimeoutError("daemon never reported its address")

    def _wait(self, ready) -> None:
        from repro.service.client import ServiceError

        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                if ready(self.client.health()):
                    return
            except ServiceError:
                pass
            time.sleep(0.005)
        raise TimeoutError("daemon never became ready")

    def stop(self) -> None:
        """``POST /shutdown``; kill the whole process group on timeout."""
        from repro.service.client import ServiceError

        try:
            self.client.shutdown()
            self.process.wait(timeout=30.0)
        except (ServiceError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.process.wait()


# ----------------------------------------------------------------------
# the request stream
# ----------------------------------------------------------------------
def _persistent(client, scenario, tracer) -> dict:
    from repro.service.client import ServiceError

    start = time.perf_counter()
    request = {"scenario": scenario}
    try:
        with _span(tracer, "service.submit"):
            submitted = client.submit(scenarios=[scenario])
        request["submit_s"] = time.perf_counter() - start
        request["id"] = submitted["id"]
        with _span(tracer, "service.stream"):
            events = list(client.stream(submitted["id"], timeout=REQUEST_TIMEOUT))
    except (ServiceError, OSError) as exc:
        # OSError: a socket timeout or reset while reading a reply body.
        request["error"] = str(exc)
        request["status"] = getattr(exc, "status", None)
        return request
    request["latency"] = time.perf_counter() - start
    request["received_at"] = time.time()
    request["terminal"] = events[-1]["event"] if events else None
    return request


def _cli(url: str, spec_path, scenario, tracer) -> dict:
    start = time.perf_counter()
    try:
        with _span(tracer, "cli.submit"):
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit", "--url", url,
                 "--spec", str(spec_path)],
                env=child_env(),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=REQUEST_TIMEOUT,
            )
    except subprocess.TimeoutExpired:
        return {"scenario": scenario, "error": f"timed out after {REQUEST_TIMEOUT} s"}
    request = {"scenario": scenario, "latency": time.perf_counter() - start}
    match = _SUBMITTED.search(done.stdout)
    if match:
        request["id"] = match.group(1)
    if done.returncode != 0:
        request["error"] = f"exit {done.returncode}: {done.stderr.strip()[-200:]}"
    return request


def _span(tracer, name: str):
    """A tracer span when a tracer is active, else a no-op context."""
    return tracer.span(name) if tracer is not None else nullcontext()


def run(args) -> dict:
    from common import Tracer

    tracer = Tracer() if args.trace else None
    cli_imports = (
        [import_seconds("import repro.service.client") for _ in range(SETUP_REPEATS)]
        if tracer is not None
        else []
    )
    rng = random.Random(args.seed)
    fresh = fresh_scenarios(args.seed)
    requests: list[dict] = []
    answered: list = []  # round-0.. scenarios already answered fresh
    round_zero: list = []  # round-0 scenarios answered without error
    round_zero_sent = 0
    size = len(catalogue())
    with workdir("fleet") as scratch:
        setups: list[float] = []
        ready: list[float] = []
        for index in range(SETUP_REPEATS):
            daemon = Daemon(scratch, f"daemon{index}", job_traces=tracer is not None)
            setups.append(daemon.setup_s)
            ready.append(daemon.fleet_ready_s)
            if index < SETUP_REPEATS - 1:
                daemon.stop()
        client = daemon.client
        specs: dict = {}
        try:
            start = time.perf_counter()
            position = 0
            while (
                time.perf_counter() - start < args.seconds
                or round_zero_sent < size
                or len(requests) < MIN_REQUESTS
            ):
                if time.perf_counter() - start > STREAM_LIMIT_S:
                    raise TimeoutError(
                        f"request stream unfinished after {STREAM_LIMIT_S:.0f} s: "
                        f"{len(requests)} requests, {round_zero_sent}/{size} of round 0"
                    )
                kind = BLOCK[position % len(BLOCK)] if answered else "F"
                position += 1
                if kind == "F":
                    round_index, scenario = next(fresh)
                    round_zero_sent += round_index == 0
                    with _span(tracer, "service.request"):
                        request = _persistent(client, scenario, tracer)
                    if "error" not in request:
                        answered.append(scenario)
                        if round_index == 0:
                            round_zero.append(scenario)
                elif kind == "H":
                    scenario = rng.choice(answered)
                    with _span(tracer, "service.request"):
                        request = _persistent(client, scenario, tracer)
                else:
                    scenario = rng.choice(answered)
                    key = scenario.name + f"#{scenario.workload.seed}"
                    if key not in specs:
                        specs[key] = scratch / f"spec-{len(specs)}.json"
                        specs[key].write_text(
                            json.dumps({"scenarios": [scenario.payload()], "tier": "ilp"})
                        )
                    with _span(tracer, "cli.request"):
                        request = _cli(daemon.url, specs[key], scenario, tracer)
                request["kind"] = kind
                requests.append(request)
            elapsed = time.perf_counter() - start
            details = {
                r["id"]: client.job(r["id"]) for r in requests if "id" in r
            }
            job_traces = (
                {
                    r["id"]: client.trace(r["id"])["records"]
                    for r in requests
                    if r["kind"] == "F" and "id" in r
                }
                if tracer is not None
                else {}
            )
        finally:
            daemon.stop()

    outcome = _check(requests, details, round_zero)
    if tracer is not None:
        return {
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": _layer_metrics(
                tracer, requests, details, outcome, job_traces, ready, cli_imports
            ),
            "tracer": tracer,
            "detail": {
                **outcome["detail"],
                "traced_mappings_per_s": outcome["done"] / elapsed,
            },
        }
    latencies = [r["latency"] for r in requests if "latency" in r and "error" not in r]
    tail_pct, tail_value = tail(latencies)
    return {
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            "setup_s": (median(setups), "s"),
            "mappings_per_s": (outcome["done"] / elapsed, "1/s"),
            "latency_p50_s": (median(latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "area_total": (outcome["area"], "memristors"),
            "global_routes_total": (outcome["routes"], "count"),
            "global_packets_total": (outcome["packets"], "count"),
            "hypervolume": (hypervolume(outcome["points"], args.hv_ref), "mem.pJ.steps"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {
            **outcome["detail"],
            "tail_percentile": tail_pct,
            "hv_points_outside_ref": sum(
                not dominates(p, args.hv_ref) for p in outcome["points"]
            ),
            **_class_latencies(requests),
        },
    }


def _class_latencies(requests) -> dict:
    def p50(kind):
        return median(
            [r["latency"] for r in requests
             if r["kind"] == kind and "latency" in r and "error" not in r]
        )

    return {
        "hit_latency_p50_s": p50("H"),
        "fresh_latency_p50_s": p50("F"),
        "cli_latency_p50_s": p50("C"),
    }


def _check(requests, details, round_zero) -> dict:
    """Failure accounting plus an independent check of every answer."""
    from repro.dse import ScenarioRegistry

    registry = ScenarioRegistry()
    failed = 0
    by_scenario: dict = {}
    measured: dict = {}
    cached = results = 0
    for request in requests:
        detail = details.get(request.get("id"))
        if "error" in request or detail is None or detail["status"] != "done":
            failed += 1
            continue
        if request.get("terminal", "done") != "done":
            failed += 1
            continue
        (result,) = detail["results"]
        results += 1
        cached += bool(result["cached"])
        scenario = request["scenario"]
        assignment = {int(k): int(v) for k, v in result["assignment"].items()}
        if scenario not in measured:
            figures = check_mapping(
                network_preds(registry.network(scenario.workload)),
                architecture_slots(registry.pool(scenario)),
                assignment,
                registry.profile(scenario.workload),
            )
            obj = result["objectives"]
            if figures["area"] != obj["area"] or figures["global_packets"] != obj["global_packets"]:
                raise CheckError(f"{scenario.name}: program {obj} != {figures}")
            measured[scenario] = (figures, obj)
            by_scenario[scenario] = assignment
        elif by_scenario[scenario] != assignment:
            raise CheckError(f"{scenario.name}: a repeat returned a different mapping")
    quality = [measured[s] for s in round_zero if s in measured]
    return {
        "attempted": len(requests),
        "failed": failed,
        "done": len(requests) - failed,
        "area": sum(f["area"] for f, _ in quality),
        "routes": sum(f["global_routes"] for f, _ in quality),
        "packets": sum(f["global_packets"] for f, _ in quality),
        "points": [(o["area"], o["energy"], o["latency"]) for _, o in quality],
        "store_hit_ratio": cached / results if results else 0.0,
        "detail": {
            "requests": len(requests),
            "fresh": sum(1 for r in requests if r["kind"] == "F"),
            "round_zero": len(quality),
        },
    }


def _layer_metrics(tracer, requests, details, outcome, job_traces, ready, cli_imports) -> dict:
    ok = [r for r in requests if "error" not in r and r.get("id") in details]

    def stamps(kind, a, b):
        return [
            details[r["id"]][b] - details[r["id"]][a]
            for r in ok
            if (kind is None or r["kind"] == kind)
            and details[r["id"]].get(a) is not None
            and details[r["id"]].get(b) is not None
        ]

    classes = _class_latencies(requests)
    notify = [
        r["received_at"] - details[r["id"]]["finished_at"]
        for r in ok
        if "received_at" in r and details[r["id"]].get("finished_at") is not None
    ]
    # The workers' per-stage solve phases, read off each fresh job's
    # trace and averaged per fresh job.
    per_job = 1.0 / max(1, len(job_traces))
    solver: dict[str, float] = {"ilp.not_optimal": 0.0}
    for record in (r for records in job_traces.values() for r in records):
        if record.get("kind") != "span":
            continue
        attrs = record.get("attrs", {})
        if record["name"] in _PHASE_FAMILIES:
            key = f"{_PHASE_FAMILIES[record['name']]}.{attrs.get('stage')}"
            solver[key] = solver.get(key, 0.0) + record["dur"] * per_job
        elif record["name"].startswith("stage:") and attrs.get("status") != "optimal":
            solver["ilp.not_optimal"] += 1
    return {
        **solver,
        "service.accept_s": median([r["submit_s"] for r in ok if "submit_s" in r]),
        "service.queue_wait_s": median(stamps(None, "submitted_at", "started_at")),
        "service.run_s": median(stamps("F", "started_at", "finished_at")),
        "service.notify_s": median(notify),
        "service.store_hit_ratio": outcome["store_hit_ratio"],
        "service.rejected": sum(
            1 for r in requests if r.get("status") is not None and r["status"] >= 400
        ),
        "service.fleet_ready_s": median(ready),
        "service.hit_latency_p50_s": classes["hit_latency_p50_s"],
        "service.fresh_latency_p50_s": classes["fresh_latency_p50_s"],
        "cli.latency_p50_s": classes["cli_latency_p50_s"],
        "cli.import_s": median(cli_imports),
        "cli.overhead_s": classes["cli_latency_p50_s"] - classes["hit_latency_p50_s"],
        "untraced_fraction": tracer.untraced_fraction(),
        "trace_overhead_ratio": tracer.overhead_ratio(),
    }
