"""Command-line interface.

Subcommands:

- ``repro map``      — map a network JSON onto a crossbar pool and save
  the mapping: a one-job ``repro batch`` (area ILP and its route polish,
  or area then SNU with ``--snu``).
- ``repro batch``    — map many network JSONs at once across a process
  pool, with an optional result cache.
- ``repro inspect``  — print Table-I statistics and structure of a network.
- ``repro simulate`` — run a saved mapping on the processor model and
  report traffic/energy.
- ``repro exhibits`` — alias of ``python -m repro.experiments.runner``.
- ``repro dse``      — design-space exploration: sweep an (architecture
  x workload x formulation) grid, report the (area, energy, latency)
  Pareto frontier, resumable via a JSONL run store.
- ``repro serve``    — run the long-lived mapping daemon: accept JSON
  job submissions over HTTP, share one batch engine + run store across
  every client; ``--journal`` persists every job transition.
- ``repro submit``   — client for ``repro serve``: submit one scenario
  (or a raw wire-format spec), stream/poll the result.
- ``repro bench``    — run the benchmark scripts under ``benchmarks/``
  and refresh the root-level ``BENCH_*.json`` perf-trajectory files.

Usage:  python -m repro.cli <subcommand> --help
"""

from __future__ import annotations

import argparse
import sys


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .experiments.runner import format_table
    from .snn.analysis import structure_report
    from .snn.io import load_network
    from .snn.stats import network_stats

    from .snn.validation import has_errors, lint_network

    network = load_network(args.network)
    stats = network_stats(network)
    rows = [
        ("neurons", stats.node_count),
        ("synapses", stats.edge_count),
        ("max fan-in", stats.max_fan_in),
        ("edge density", round(stats.edge_density, 5)),
        ("gini (incoming)", round(stats.gini_incoming, 4)),
        ("gini (outgoing)", round(stats.gini_outgoing, 4)),
    ]
    rows += structure_report(network).as_rows()
    print(format_table(["attribute", "value"], rows))
    issues = lint_network(network)
    if issues:
        print("\nlint findings:")
        for issue in issues:
            print(f"  {issue}")
    return 1 if has_errors(issues) else 0


def _pooled_job(name: str, path, args: argparse.Namespace):
    """Shared map/batch front door: load, compact, pick the crossbar pool,
    and wrap it all in one :class:`~repro.batch.engine.BatchJob`."""
    from .batch.engine import BatchJob
    from .mca.architecture import (
        heterogeneous_architecture,
        homogeneous_architecture,
    )
    from .snn.io import load_network

    compact, _ = load_network(path).compact()
    if args.homogeneous:
        arch = homogeneous_architecture(
            compact.num_neurons, dimension=args.dimension
        )
    else:
        arch = heterogeneous_architecture(compact.num_neurons)
    return BatchJob(
        name=name,
        network=compact,
        architecture=arch,
        stages=("area", "snu") if args.snu else ("area",),
        area_time_limit=args.time_limit,
        route_time_limit=args.time_limit,
    )


def _cmd_map(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .batch.engine import BatchMapper
    from .mapping.io import save_mapping

    job = _pooled_job(Path(args.network).stem, args.network, args)
    (record,) = BatchMapper().map_all([job])
    if not record.ok:
        print(f"error: {record.error}", file=sys.stderr)
        return 1
    for name, stage in record.stages.items():
        label = "SNU" if name == "snu" else name
        status = stage.solve_result.status.value
        print(f"{label} stage ({status}): {stage.mapping.summary()}")
    save_mapping(record.final().mapping, args.output)
    print(f"mapping written to {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .batch.cache import ResultCache
    from .batch.engine import BatchMapper
    from .mapping.io import save_mapping

    jobs = []
    used_names: set[str] = set()
    for path in args.networks:
        # Same basename from different directories: suffix until unique so
        # job names (and output files) never collide — including with an
        # input whose real stem matches a generated suffix (net-2.json).
        stem = Path(path).stem
        name, counter = stem, 1
        while name in used_names:
            counter += 1
            name = f"{stem}-{counter}"
        used_names.add(name)
        jobs.append(_pooled_job(name, path, args))

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    mapper = BatchMapper(jobs=args.jobs, cache=cache)
    result = mapper.map_all(jobs)
    print(result.report())
    if cache is not None:
        print(
            f"cache: {cache.stats.hits} hit(s), {cache.stats.misses} miss(es)"
        )

    if args.output_dir:
        out_dir = Path(args.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for record in result.succeeded():
            target = out_dir / f"{record.name}.mapping.json"
            save_mapping(record.final().mapping, target)
        print(f"{len(result.succeeded())} mapping(s) written to {out_dir}")
    return 0 if not result.failed() else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .mapping.io import load_mapping
    from .mca.energy import cost_summary
    from .mca.processor import MappedProcessor

    mapping = load_mapping(args.mapping)
    network = mapping.problem.network
    proc = MappedProcessor(
        network, mapping.assignment, mapping.problem.architecture
    )
    spikes = {nid: list(range(0, args.duration, args.period))
              for nid in network.input_ids()}
    sim, traffic = proc.run(args.duration, input_spikes=spikes)
    summary = cost_summary(
        mapping.problem.architecture, mapping.assignment, traffic, args.duration
    )
    print(f"spikes           : {sim.total_spikes}")
    print(f"local packets    : {traffic.local_packets}")
    print(f"global packets   : {traffic.global_packets}")
    print(f"hop-packets      : {traffic.hop_packets}")
    print(f"peak link load   : {traffic.max_link_load}")
    print(f"energy estimate  : {summary.total_energy_pj:.1f} pJ")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .batch.cache import ResultCache
    from .dse import (
        Explorer,
        RunStore,
        default_space,
        explore_adaptive,
        explore_grid,
    )

    space = default_space(
        networks=tuple(args.networks),
        scale=args.scale,
        profiles=tuple(args.profiles),
        dimensions=tuple(args.dimensions),
        include_heterogeneous=not args.no_heterogeneous,
        include_snu=not args.no_snu,
        include_pgo=args.include_pgo,
        include_precision=args.include_precision,
        num_samples=args.num_samples,
    )
    store = RunStore(args.store) if args.store else RunStore()
    if args.store and len(store):
        print(f"run store {args.store}: resuming past {len(store)} entr(ies)")
    explorer = Explorer(
        store=store,
        jobs=args.jobs,
        portfolio=args.portfolio,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        time_limit=args.time_limit,
    )
    print(
        f"exploring {len(space)} scenario(s) "
        f"({len(space.architectures)} architectures x "
        f"{len(space.workloads)} workloads x "
        f"{len(space.formulations)} formulations) [{args.driver}]"
    )
    if args.driver == "grid":
        result = explore_grid(space, explorer)
    else:
        result = explore_adaptive(
            space,
            explorer,
            keep=args.keep,
            budget_fraction=args.budget_fraction,
            max_rungs=args.max_rungs,
            prune_slack=args.prune_slack,
        )
    print(result.report())
    if args.json:
        Path(args.json).write_text(
            json.dumps(result.to_json(), indent=2) + "\n"
        )
        print(f"frontier summary written to {args.json}")
    failed = [r for r in result.results if not r.ok]
    if failed:
        print(f"{len(failed)} scenario(s) failed:")
        for r in failed:
            print(f"  {r.scenario.name}: {r.error}")
    # Mirror `repro batch`: any failed scenario fails the command, so a
    # sweep wired into CI cannot go green on partial coverage.
    return 0 if result.ok_results() and not failed else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service.admission import AdmissionController
    from .service.daemon import MappingService, make_server, run_server
    from .service.worker import FleetConfig

    fleet = max(0, args.fleet)
    explorer = None
    if not fleet:
        # Thread workers share one in-process solver stack, and its run
        # store (in memory without --store) keeps every answer.  A fleet
        # daemon builds none: each worker process builds its own.
        from .dse import Explorer, RunStore

        explorer = Explorer(
            store=RunStore(args.store) if args.store else RunStore(),
            time_limit=args.time_limit,
        )
    max_queue = args.max_queue
    if fleet and max_queue is None:
        # A fleet exists to survive heavy traffic; unbounded accept is
        # exactly the failure mode it retires.
        max_queue = 1024
    admission = AdmissionController(
        rate=args.rate,
        burst=args.burst,
        max_in_flight=args.max_inflight_per_client,
    )
    service = MappingService(
        explorer,
        workers=args.workers,
        journal_path=args.journal,
        fleet=fleet,
        max_queue_depth=max_queue,
        admission=admission,
        shed_after=args.shed_after,
        aging_interval=args.aging_interval,
        fleet_config=FleetConfig(
            store_path=args.store,
            time_limit=args.time_limit,
            lease_ttl=args.lease_ttl,
            heartbeat_interval=args.heartbeat_interval,
            max_attempts=args.max_attempts,
            drain_timeout=args.drain_timeout,
        ),
        trace_dir=args.trace_dir,
        trace_slow_span=args.trace_slow_span,
    )
    if args.store and len(service.store):
        print(f"run store {args.store}: {len(service.store)} entr(ies) warm")
    server = make_server(service, host=args.host, port=args.port)

    # SIGTERM/SIGINT take the same clean-drain path as POST /shutdown:
    # stop accepting, let leased jobs finish (or re-queue them), close
    # the journal — instead of dying mid-write on a bare KeyboardInterrupt.
    def _graceful_shutdown(signum, frame) -> None:
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful_shutdown)
    signal.signal(signal.SIGINT, _graceful_shutdown)

    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port}", flush=True)
    kind = f"{fleet} worker process(es)" if fleet else f"{args.workers} thread(s)"
    print(f"{kind}; job journal {args.journal or '(in-memory)'}", flush=True)
    if args.journal:
        replayed = len(service.registry.jobs())
        print(f"job journal {args.journal}: {replayed} job(s) replayed", flush=True)
    if args.trace_dir:
        print(f"span journals -> {args.trace_dir}", flush=True)
    print("POST /jobs to submit; POST /shutdown to stop", flush=True)
    run_server(service, server)
    service.store.close()
    print("repro service stopped")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceClient, ServiceError, StreamInterrupted

    try:
        if args.spec:
            from pathlib import Path

            payload = json.loads(Path(args.spec).read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError(
                    f"spec {args.spec} must hold a JSON object, "
                    f"got {type(payload).__name__}"
                )
        else:
            from .dse.scenario import (
                ArchitectureSpec,
                FormulationSpec,
                Scenario,
                WorkloadSpec,
            )
            from .service.wire import JobSpec

            scenario = Scenario(
                architecture=(
                    ArchitectureSpec(kind="homogeneous", dimension=args.dimension)
                    if args.homogeneous
                    else ArchitectureSpec(kind="heterogeneous")
                ),
                workload=WorkloadSpec(
                    network=args.network,
                    scale=args.scale,
                    profile=args.profile,
                    num_samples=args.num_samples,
                ),
                formulation=FormulationSpec(stages=tuple(args.stages)),
            )
            payload = JobSpec(
                scenarios=(scenario,),
                tier=args.tier,
                time_limit=args.time_limit,
                priority=args.priority,
                deadline_ms=args.deadline_ms,
            ).payload()
        if args.spec:
            # Flags win over the spec file's own keys, so one saved spec
            # can be resubmitted at a different lane/deadline.
            if args.priority != "normal":
                payload["priority"] = args.priority
            if args.deadline_ms is not None:
                payload["deadline_ms"] = args.deadline_ms
    except (ValueError, OSError) as exc:  # WireError is a ValueError
        print(f"invalid submission: {exc}", file=sys.stderr)
        return 2

    trace_context = None
    if args.trace is not None:
        from .trace.context import mint_context, valid_encoded

        if args.trace == "new":
            trace_context = mint_context().encode()
        elif valid_encoded(args.trace):
            trace_context = args.trace
        else:
            print(
                f"invalid --trace {args.trace!r}: expected "
                "'<trace-id>' or '<trace-id>:<span-id>' (lowercase hex)",
                file=sys.stderr,
            )
            return 2

    client = ServiceClient(
        args.url,
        timeout=args.timeout,
        max_retries=args.retries,
        client=args.client,
    )
    try:
        submitted = client.submit(payload=payload, trace=trace_context)
        job_id = submitted["id"]
        print(f"submitted {job_id} ({submitted['scenarios']} scenario(s))")
        if submitted.get("trace"):
            trace_id = submitted["trace"].partition(":")[0]
            print(f"trace {trace_id} (repro trace {job_id} --url {args.url})")
        if args.stream:
            for event in client.stream(job_id, timeout=args.timeout):
                print(json.dumps(event, sort_keys=True))
            detail = client.job(job_id)
        else:
            detail = client.wait(job_id, timeout=args.timeout)
    except StreamInterrupted as exc:
        # Exit 3, not 2: the job was accepted and is probably still
        # running — only the watch broke.
        print(f"stream interrupted: {exc}", file=sys.stderr)
        print(
            f"job {job_id} may still finish; poll with GET /jobs/{job_id}",
            file=sys.stderr,
        )
        return 3
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        if exc.status == 429:
            wait = exc.suggested_wait or exc.retry_after
            if wait is not None:
                print(
                    f"throttled; retry in {max(1, round(wait))}s",
                    file=sys.stderr,
                )
        return 2
    if not args.stream:
        for result in detail["results"]:
            tag = "cache" if result.get("cached") else result["status"]
            line = f"{result['scenario']:<40} {tag:<6}"
            if result.get("objectives"):
                obj = result["objectives"]
                line += (
                    f" area={obj['area']:g}"
                    f" energy={obj['energy']:g}"
                    f" latency={obj['latency']:g}"
                    f" solves={result['solves']}"
                )
            if result.get("error"):
                line += f" {result['error']}"
            print(line)
    print(f"job {job_id}: {detail['status']}")
    if args.json:
        from pathlib import Path

        Path(args.json).write_text(json.dumps(detail, indent=2) + "\n")
        print(f"job detail written to {args.json}")
    return 0 if detail["status"] == "done" else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from . import trace as trace_mod

    target = Path(args.target)
    try:
        if target.is_dir():
            records = trace_mod.read_trace_dir(target, args.trace_id)
            source = f"directory {target}"
        elif target.is_file():
            from .jsonlio import read_jsonl

            records = list(read_jsonl(target))
            if args.trace_id:
                records = [
                    record for record in records
                    if record.get("trace") == args.trace_id
                ]
            source = f"journal {target}"
        else:
            from .service.client import ServiceClient, ServiceError

            client = ServiceClient(args.url)
            try:
                payload = client.trace(args.target)
            except ServiceError as exc:
                print(f"service error: {exc}", file=sys.stderr)
                if exc.status == 404:
                    print(
                        "unknown job id (and no such file/directory); is "
                        "the daemon running with --trace-dir?",
                        file=sys.stderr,
                    )
                return 2
            records = payload["records"]
            source = f"job {args.target} ({payload['status']})"
            if payload.get("progress"):
                progress = payload["progress"]
                gap = progress.get("gap")
                print(
                    "live progress: "
                    f"objective={progress.get('objective')} "
                    f"bound={progress.get('bound')}"
                    + (f" gap={gap:.3f}" if gap is not None else "")
                )
    except OSError as exc:
        print(f"cannot read {args.target}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"no trace records in {source}", file=sys.stderr)
        return 1
    print(trace_mod.render_tree(records))
    if args.slow:
        print(f"\nslowest {args.slow} span(s):")
        for span in trace_mod.slowest_spans(records, args.slow):
            print(
                f"  {span.duration * 1000.0:9.1f}ms  {span.name}"
                f"  [{span.process}]"
            )
    if args.chrome:
        chrome = trace_mod.chrome_trace(records)
        Path(args.chrome).write_text(
            json.dumps(chrome) + "\n", encoding="utf-8"
        )
        print(f"chrome trace written to {args.chrome}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import subprocess
    from pathlib import Path

    bench_dir = Path.cwd() / "benchmarks"
    if not bench_dir.is_dir():
        print(
            "no benchmarks/ directory here; run `repro bench` from the repo root",
            file=sys.stderr,
        )
        return 2
    if args.benches:
        targets = []
        for name in args.benches:
            stem = name if name.startswith("bench_") else f"bench_{name}"
            path = bench_dir / f"{Path(stem).stem}.py"
            if not path.is_file():
                print(f"unknown bench {name!r} ({path} missing)", file=sys.stderr)
                return 2
            targets.append(path)
    else:
        targets = sorted(bench_dir.glob("bench_*.py"))
        if args.trajectory_only:
            # Just the benches that emit BENCH_*.json trajectory files.
            targets = [
                t
                for t in targets
                if t.name
                in (
                    "bench_dse.py",
                    "bench_ilp.py",
                    "bench_service.py",
                    "bench_simulator.py",
                )
            ]
    command = [
        sys.executable,
        "-m",
        "pytest",
        *[str(t) for t in targets],
        "--benchmark-only",
        "-q",
    ]
    print("running:", " ".join(command))
    import time

    run_started = time.time()
    status = subprocess.run(command).returncode

    # Refresh the root perf trajectory: mirror only the BENCH_*.json
    # artifacts this run actually (re)wrote — a stale artifact from a
    # bench that was not selected must never clobber a newer root file.
    refreshed = []
    for artifact in sorted(bench_dir.glob("BENCH_*.json")):
        if artifact.stat().st_mtime < run_started:
            continue
        target = bench_dir.parent / artifact.name
        target.write_text(artifact.read_text())
        refreshed.append(target.name)
    roots = sorted(p.name for p in bench_dir.parent.glob("BENCH_*.json"))
    print(f"root trajectory files: {', '.join(roots) or '(none)'}"
          + (f" (refreshed {', '.join(refreshed)})" if refreshed else ""))
    return status


def _cmd_exhibits(args: argparse.Namespace) -> int:
    from .experiments import runner

    forwarded: list[str] = []
    if args.exhibit:
        forwarded += ["--exhibit", args.exhibit]
    if args.full:
        forwarded.append("--full")
    if args.jobs is not None:
        forwarded += ["--jobs", str(args.jobs)]
    return runner.main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SNN-to-heterogeneous-crossbar mapping (DATE 2025 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inspect = sub.add_parser("inspect", help="network statistics and structure")
    inspect.add_argument("network", help="network JSON file")
    inspect.set_defaults(func=_cmd_inspect)

    map_cmd = sub.add_parser(
        "map",
        help="map one network onto a crossbar pool (a one-job batch: area "
             "ILP and route polish, or area then SNU with --snu)",
    )
    map_cmd.add_argument("network", help="network JSON file")
    map_cmd.add_argument("-o", "--output", default="mapping.json")
    map_cmd.add_argument("--homogeneous", action="store_true",
                         help="use a square homogeneous pool (default: Table II)")
    map_cmd.add_argument("--dimension", type=int, default=16,
                         help="homogeneous crossbar dimension")
    map_cmd.add_argument("--time-limit", type=float, default=30.0)
    map_cmd.add_argument("--snu", action="store_true",
                         help="run SNU route minimization after area")
    map_cmd.set_defaults(func=_cmd_map)

    batch = sub.add_parser(
        "batch", help="map many networks at once across a process pool"
    )
    batch.add_argument("networks", nargs="+", help="network JSON files")
    batch.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial)")
    batch.add_argument("--snu", action="store_true",
                       help="run SNU route minimization after area")
    batch.add_argument("--homogeneous", action="store_true",
                       help="use a square homogeneous pool (default: Table II)")
    batch.add_argument("--dimension", type=int, default=16,
                       help="homogeneous crossbar dimension")
    batch.add_argument("--time-limit", type=float, default=30.0,
                       help="per-stage solver budget in seconds")
    batch.add_argument("--cache-dir", default=None,
                       help="directory for the fingerprint-keyed result cache")
    batch.add_argument("-o", "--output-dir", default=None,
                       help="write one <name>.mapping.json per network here")
    batch.set_defaults(func=_cmd_batch)

    simulate = sub.add_parser("simulate", help="execute a saved mapping")
    simulate.add_argument("mapping", help="mapping JSON file")
    simulate.add_argument("--duration", type=int, default=64)
    simulate.add_argument("--period", type=int, default=4,
                          help="input spike period per input neuron")
    simulate.set_defaults(func=_cmd_simulate)

    dse = sub.add_parser(
        "dse",
        help="design-space exploration: Pareto frontier over "
             "(area, energy, latency)",
    )
    dse.add_argument("--driver", choices=("grid", "adaptive"),
                     default="adaptive",
                     help="exhaustive grid, or successive halving that "
                          "spends ILP budget only on the promising band")
    dse.add_argument("--store", default=None,
                     help="JSONL run store; rerunning with the same store "
                          "resumes instead of re-solving")
    dse.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = serial)")
    dse.add_argument("--portfolio", action="store_true",
                     help="adaptive: tune each rung's HiGHS solve to the "
                          "rung (loose gap and node cap on cheap rungs, "
                          "exact on the top rung); grid: no effect on "
                          "the solve")
    dse.add_argument("--time-limit", type=float, default=10.0,
                     help="per-stage solver budget in seconds")
    dse.add_argument("--cache-dir", default=None,
                     help="directory for the fingerprint-keyed result cache")
    dse.add_argument("--networks", nargs="+", default=["C", "E"],
                     choices=("A", "B", "C", "D", "E"), metavar="NAME",
                     help="Table-I twins to sweep (A-E)")
    dse.add_argument("--scale", type=float, default=0.12,
                     help="twin scaling factor")
    dse.add_argument("--profiles", nargs="+",
                     default=["uniform", "hotspot"],
                     choices=("uniform", "stroke", "hotspot", "noise"),
                     help="spike-profile families driving the energy axis")
    dse.add_argument("--dimensions", nargs="+", type=int, default=[12, 16],
                     help="homogeneous crossbar dimensions to sweep")
    dse.add_argument("--num-samples", type=int, default=12,
                     help="frames simulated per non-uniform profile")
    dse.add_argument("--no-heterogeneous", action="store_true",
                     help="drop the Table-II heterogeneous pool axis")
    dse.add_argument("--no-snu", action="store_true",
                     help="drop the area+snu formulation axis")
    dse.add_argument("--include-pgo", action="store_true",
                     help="add an area+snu+pgo formulation axis")
    dse.add_argument("--include-precision", action="store_true",
                     help="add a bit-sliced 4b-weight formulation axis")
    dse.add_argument("--keep", type=float, default=0.7,
                     help="adaptive: each rung's share of remaining budget")
    dse.add_argument("--budget-fraction", type=float, default=0.5,
                     help="adaptive: ILP-solve ceiling vs the full grid")
    dse.add_argument("--max-rungs", type=int, default=3,
                     help="adaptive: maximum promotion rungs")
    dse.add_argument("--prune-slack", type=float, default=0.25,
                     help="adaptive: optimism applied to greedy bounds "
                          "before pruning")
    dse.add_argument("--json", default=None,
                     help="write the frontier summary JSON here")
    dse.set_defaults(func=_cmd_dse)

    serve = sub.add_parser(
        "serve",
        help="long-lived mapping daemon sharing one engine and run store",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100,
                       help="listen port (0 = pick a free one)")
    serve.add_argument("--workers", type=int, default=1,
                       help="in-process worker threads sharing the daemon's "
                            "engine and store; each runs one solve at "
                            "a time, in the thread that traces it (ignored "
                            "with --fleet)")
    serve.add_argument("--time-limit", type=float, default=10.0,
                       help="default per-stage solver budget in seconds")
    serve.add_argument("--journal", "--ledger", dest="journal", default=None,
                       help="persistent job journal (JSONL; default: in "
                            "memory): job status, results and leases "
                            "survive daemon and worker crashes, and jobs "
                            "a restart interrupted run again")
    serve.add_argument("--store", default=None,
                       help="shared JSONL run store file (every worker "
                            "appends to it); submissions resume from it")
    serve.add_argument("--fleet", type=int, default=0,
                       help="run N supervised worker *processes* instead "
                            "of --workers threads (0 = threads)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound on queued+running jobs; beyond it "
                            "submissions get HTTP 429 + Retry-After "
                            "(default: 1024 with --fleet, unbounded "
                            "with threads)")
    serve.add_argument("--lease-ttl", type=float, default=15.0,
                       help="fleet: seconds a lease survives without a "
                            "heartbeat before it is re-queued")
    serve.add_argument("--heartbeat-interval", type=float, default=3.0,
                       help="seconds between worker heartbeats")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per job before dead-letter")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-client submission rate limit "
                            "(tokens/second; default: unlimited)")
    serve.add_argument("--burst", type=float, default=None,
                       help="per-client token-bucket capacity "
                            "(default: max(1, 2*rate))")
    serve.add_argument("--max-inflight-per-client", type=int, default=None,
                       help="max accepted-but-unfinished jobs per client "
                            "(default: unlimited)")
    serve.add_argument("--shed-after", type=float, default=None,
                       help="shed lowest-priority queued jobs once the "
                            "oldest has waited this many seconds "
                            "(default: never shed)")
    serve.add_argument("--aging-interval", type=float, default=30.0,
                       help="seconds of queue wait that promote a job one "
                            "priority class (anti-starvation aging)")
    serve.add_argument("--trace-dir", default=None,
                       help="span-journal directory (one journal per "
                            "process); enables end-to-end "
                            "tracing (every job gets a trace id, "
                            "GET /jobs/<id>/trace serves the span tree)")
    serve.add_argument("--trace-slow-span", type=float, default=None,
                       help="log + count spans slower than this many "
                            "seconds (needs --trace-dir)")
    serve.add_argument("--drain-timeout", type=float, default=20.0,
                       help="seconds to wait for in-flight jobs on "
                            "shutdown before re-queueing them")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a mapping job to a running `repro serve`"
    )
    submit.add_argument("--url", default="http://127.0.0.1:8100",
                        help="daemon base URL")
    submit.add_argument("--spec", default=None,
                        help="JSON file with a raw wire-format submission "
                             "(overrides the axis flags)")
    submit.add_argument("--network", default="C",
                        choices=("A", "B", "C", "D", "E"),
                        help="Table-I twin to map")
    submit.add_argument("--scale", type=float, default=0.12,
                        help="twin scaling factor")
    submit.add_argument("--profile", default="uniform",
                        choices=("uniform", "stroke", "hotspot", "noise"),
                        help="spike-profile family for the energy axis")
    submit.add_argument("--num-samples", type=int, default=12,
                        help="frames simulated per non-uniform profile")
    submit.add_argument("--homogeneous", action="store_true",
                        help="use a square homogeneous pool (default: Table II)")
    submit.add_argument("--dimension", type=int, default=16,
                        help="homogeneous crossbar dimension")
    submit.add_argument("--stages", nargs="+", default=["area"],
                        choices=("area", "snu", "pgo"),
                        help="mapping-pipeline stage prefix")
    submit.add_argument("--tier", default="ilp", choices=("ilp", "greedy"),
                        help="evaluation tier")
    submit.add_argument("--time-limit", type=float, default=None,
                        help="per-stage solver budget (default: server's)")
    submit.add_argument("--client", default="anonymous",
                        help="client identity for the daemon's per-client "
                             "quotas (sent as X-Repro-Client)")
    submit.add_argument("--priority", default="normal",
                        choices=("high", "normal", "batch"),
                        help="scheduling lane (batch work ages its way up, "
                             "never starves)")
    submit.add_argument("--deadline-ms", type=int, default=None,
                        help="end-to-end deadline in milliseconds; an "
                             "expired job fails fast as 'deadline'")
    submit.add_argument("--trace", nargs="?", const="new", default=None,
                        help="trace the job end to end: with no value, "
                             "mint a fresh trace id; with a value, join an "
                             "existing trace ('<trace-id>[:<span-id>]'). "
                             "Needs a server started with --trace-dir")
    submit.add_argument("--stream", action="store_true",
                        help="print the NDJSON event stream while waiting")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client-side wait timeout in seconds")
    submit.add_argument("--retries", type=int, default=0,
                        help="retry transient GET failures (a dropped "
                             "wait stream included) and 429 backpressure "
                             "this many times")
    submit.add_argument("--json", default=None,
                        help="write the final job detail JSON here")
    submit.set_defaults(func=_cmd_submit)

    trace_cmd = sub.add_parser(
        "trace",
        help="inspect a job's span tree (from the daemon or journal files)",
    )
    trace_cmd.add_argument("target",
                           help="job id (fetched from --url), a span-journal "
                                ".jsonl file, or a trace directory")
    trace_cmd.add_argument("--url", default="http://127.0.0.1:8100",
                           help="daemon base URL (job-id targets)")
    trace_cmd.add_argument("--trace-id", default=None,
                           help="filter file/directory targets to one trace")
    trace_cmd.add_argument("--chrome", default=None, metavar="PATH",
                           help="also write a Chrome trace-event JSON "
                                "(load in Perfetto / chrome://tracing)")
    trace_cmd.add_argument("--slow", type=int, default=0, metavar="N",
                           help="also list the N slowest spans")
    trace_cmd.set_defaults(func=_cmd_trace)

    bench = sub.add_parser(
        "bench",
        help="run benchmark scripts and refresh the root BENCH_*.json files",
    )
    bench.add_argument(
        "benches",
        nargs="*",
        help="bench names to run (e.g. ilp, simulator, batch); default: all",
    )
    bench.add_argument(
        "--trajectory-only",
        action="store_true",
        help="with no names: run only the BENCH_*.json-emitting benches",
    )
    bench.set_defaults(func=_cmd_bench)

    exhibits = sub.add_parser("exhibits", help="reproduce paper tables/figures")
    exhibits.add_argument("--exhibit", default="all")
    exhibits.add_argument("--full", action="store_true")
    exhibits.add_argument("--jobs", type=int, default=None)
    exhibits.set_defaults(func=_cmd_exhibits)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
