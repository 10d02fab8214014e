"""``compile``: exact area -> snu -> pgo compiles of Table-I twins, serially.

The draw is every Table-I twin (A-E at scale 0.08) under three generation
seeds, in the workload seed's order.  One request generates each twin,
simulates a seeded hotspot spike profile for it and compiles all of them
onto the Table-II heterogeneous pool and a 16x16 homogeneous pool in one
``BatchMapper(jobs=1).map_all`` call, like ``repro batch`` over fifteen
network files.  Latency is per request: per-twin times are too uneven
for a 15-sample median to hold still.  A run repeats the request until
``--seconds`` have elapsed.  Every stage must close ``optimal`` and every
final mapping must match ``expected_compile.json``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from common import (
    CheckError,
    architecture_slots,
    check_mapping,
    dominates,
    hypervolume,
    import_seconds,
    median,
    network_preds,
    peak_rss_mb,
    tail,
)

TWINS = ("A", "B", "C", "D", "E")
GENERATION_SEEDS = (1, 2, 3)
SCALE = 0.08
POOLS = ("het8", "homo16")
STAGES = ("area", "snu", "pgo")
#: Per-stage budget; loose enough that every stage proves optimality.
STAGE_TIME_LIMIT = 60.0
PROFILE_SAMPLES = 12
PROFILE_WINDOW = 16
EXPECTED = Path(__file__).resolve().parent / "expected_compile.json"
SETUP_REPEATS = 3


def catalogue(seed: int) -> list[tuple[str, int]]:
    """Every (twin, generation seed) of the draw, in the seed's order."""
    items = [(twin, gen) for twin in TWINS for gen in GENERATION_SEEDS]
    random.Random(seed).shuffle(items)
    return items


def instance_key(twin: str, gen: int, pool: str) -> str:
    return f"{twin}-g{gen}-{pool}"


def _pool(kind: str, num_neurons: int):
    from repro import heterogeneous_architecture, homogeneous_architecture

    if kind == "het8":
        return heterogeneous_architecture(num_neurons, max_slots_per_type=8)
    return homogeneous_architecture(num_neurons, dimension=16)


def prepare(twin: str, gen: int) -> dict:
    """Generate one twin, simulate its spike profile and build its two jobs."""
    from repro import BatchJob
    from repro.experiments.networks import paper_network
    from repro.profile.profiler import collect_profile
    from repro.profile.workloads import hotspot_frames

    network = paper_network(twin, scale=SCALE, seed=gen).compact()[0]
    side = max(1, int(len(network.input_ids()) ** 0.5))
    frames = hotspot_frames(
        rows=side, cols=side, num_samples=PROFILE_SAMPLES, seed=gen
    )
    counts = dict(collect_profile(network, frames, window=PROFILE_WINDOW).counts)
    jobs = [
        BatchJob(
            instance_key(twin, gen, pool),
            network,
            _pool(pool, network.num_neurons),
            stages=STAGES,
            profile=counts,
            area_time_limit=STAGE_TIME_LIMIT,
            route_time_limit=STAGE_TIME_LIMIT,
        )
        for pool in POOLS
    ]
    return {"network": network, "counts": counts, "jobs": jobs}


def compile_draw(mapper, draw) -> list[dict]:
    """One request: prepare every twin of ``draw``, then compile them all."""
    outcomes = [prepare(twin, gen) for twin, gen in draw]
    result = mapper.map_all([job for outcome in outcomes for job in outcome["jobs"]])
    records = iter(result.records)
    for outcome in outcomes:
        outcome["records"] = [next(records) for _ in outcome["jobs"]]
    return outcomes


def measure_outcome(outcome: dict) -> tuple[dict, int, int]:
    """Independent per-instance figures plus (attempted, failed) counts.

    A job that errors or a stage that does not close ``optimal`` is a
    failure; a placement that breaks a capacity rule or disagrees with the
    program's own metrics raises :class:`CheckError`.
    """
    preds = network_preds(outcome["network"])
    figures: dict[str, dict] = {}
    failed = 0
    for job, record in zip(outcome["jobs"], outcome["records"]):
        if not record.ok:
            failed += 1
            continue
        if any(
            stage.solve_result is None or stage.solve_result.status.value != "optimal"
            for stage in record.stages.values()
        ):
            failed += 1
        final = record.final()
        measured = check_mapping(
            preds,
            architecture_slots(job.architecture),
            dict(final.mapping.assignment),
            outcome["counts"],
        )
        reported = final.metrics
        if (
            measured["area"] != reported.area
            or measured["global_routes"] != reported.global_routes
            or measured["global_packets"] != reported.global_packets
        ):
            raise CheckError(f"{job.name}: program metrics {reported} != {measured}")
        figures[job.name] = {**measured, "mapping": final.mapping}
    return figures, len(outcome["jobs"]), failed


def design_point(mapping, counts) -> tuple[float, float, float]:
    """(area, energy, latency) of a compiled mapping, as the DSE scores it."""
    from repro.dse.objectives import evaluate_objectives
    from repro.mca.noc import MeshNoC

    point = evaluate_objectives(
        mapping, counts, noc=MeshNoC(mapping.problem.architecture.num_slots)
    )
    return point.area, point.energy, point.latency


def _install_tracer(tracer, sink: dict) -> None:
    """Wrap the calls the compile path makes into each layer."""
    import repro.batch.engine as engine
    import repro.experiments.networks as networks
    import repro.mapping.pipeline as pipeline
    import repro.profile.profiler as profiler
    from repro import BatchMapper

    tracer.wrap(networks, "statistical_twin", "snn.generate")
    tracer.wrap(profiler, "collect_profile", "profile.collect")
    tracer.wrap(BatchMapper, "map_all", "batch.map_all")
    tracer.wrap(pipeline, "greedy_first_fit", "mapping.greedy")
    tracer.wrap(pipeline, "evaluate_mapping", "mapping.evaluate")
    tracer.wrap(engine, "evaluate_mapping", "mapping.evaluate")

    def keep_handles(attr: str, stage: str) -> None:
        """Collect every model the stage builds, for its row and nonzero counts."""
        original = getattr(pipeline, attr)

        def build(*args, **kwargs):
            handle = original(*args, **kwargs)
            sink.setdefault("handles", []).append((stage, handle))
            return handle

        tracer.patch(pipeline, attr, build)

    keep_handles("AreaModel", "area")
    keep_handles("build_snu_model", "snu")
    keep_handles("build_pgo_model", "pgo")


def run(args) -> dict:
    from common import Tracer

    setups = [import_seconds("import repro") for _ in range(SETUP_REPEATS)]
    from repro import BatchMapper

    mapper = BatchMapper(jobs=1)
    expected = json.loads(EXPECTED.read_text())
    draw = catalogue(args.seed)
    tracer = Tracer() if args.trace else None
    sink: dict = {}
    if tracer is not None:
        _install_tracer(tracer, sink)

    latencies: list[float] = []
    passes: list[list[dict]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("compile.request"):
                outcomes = compile_draw(mapper, draw)
        else:
            outcomes = compile_draw(mapper, draw)
        latencies.append(time.perf_counter() - t0)
        passes.append(outcomes)

    attempted = failed = 0
    first: dict[str, dict] = {}
    points = []
    for index, outcomes in enumerate(passes):
        for outcome in outcomes:
            figures, tried, bad = measure_outcome(outcome)
            attempted += tried
            failed += bad
            for key, fig in figures.items():
                got = {k: fig[k] for k in ("area", "global_routes", "global_packets")}
                if expected.get(key) != got:
                    raise CheckError(f"{key}: expected {expected.get(key)}, got {got}")
            if index == 0 and tracer is None:
                first.update(figures)
                points += [
                    design_point(f["mapping"], outcome["counts"]) for f in figures.values()
                ]

    if tracer is not None:
        tracer.restore()
        records = [r for o in passes for outcome in o for r in outcome["records"]]
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": _layer_metrics(tracer, sink, records, len(passes)),
            "tracer": tracer,
            "detail": {
                "passes": len(passes),
                "traced_mappings_per_s": attempted / sum(latencies),
            },
        }

    tail_pct, tail_value = tail(latencies)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "mappings_per_s": (attempted / sum(latencies), "1/s"),
            "latency_p50_s": (median(latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "area_total": (sum(f["area"] for f in first.values()), "memristors"),
            "global_routes_total": (
                sum(f["global_routes"] for f in first.values()), "count"),
            "global_packets_total": (
                sum(f["global_packets"] for f in first.values()), "count"),
            "hypervolume": (hypervolume(points, args.hv_ref), "mem.pJ.steps"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {
            "passes": len(passes),
            "tail_percentile": tail_pct,
            "instances_per_pass": len(first),
            "hv_points_outside_ref": sum(not dominates(p, args.hv_ref) for p in points),
        },
    }


def _layer_metrics(tracer, sink, records, passes) -> dict:
    """Per-layer figures per pass over the catalogue."""
    per_pass = 1.0 / passes
    metrics = {
        "snn.generate_s": tracer.total("snn.generate") * per_pass,
        "profile.collect_s": tracer.total("profile.collect") * per_pass,
        "mapping.greedy_s": tracer.total("mapping.greedy") * per_pass,
        "mapping.evaluate_s": tracer.total("mapping.evaluate") * per_pass,
        "batch.map_all_s": tracer.total("batch.map_all") * per_pass,
        "batch.map_all_calls": tracer.count("batch.map_all") * per_pass,
    }
    not_optimal = 0
    phase_totals: dict[tuple[str, str], float] = {}
    nodes: dict[str, int] = {}
    for record in records:
        for stage, entry in record.stages.items():
            solve = entry.solve_result
            if solve is None:
                continue
            if solve.status.value != "optimal":
                not_optimal += 1
            nodes[stage] = nodes.get(stage, 0) + solve.node_count
            for phase, seconds in solve.phases:
                key = (stage, phase)
                phase_totals[key] = phase_totals.get(key, 0.0) + seconds
    rows: dict[str, int] = {}
    nonzeros: dict[str, int] = {}
    for stage, handle in sink.get("handles", []):
        stats = handle.model.stats()
        rows[stage] = rows.get(stage, 0) + stats["constraints"]
        nonzeros[stage] = nonzeros.get(stage, 0) + stats["nonzeros"]
    for stage in STAGES:
        metrics[f"mapping.build_s.{stage}"] = phase_totals.get((stage, "build"), 0.0) * per_pass
        metrics[f"ilp.lower_s.{stage}"] = phase_totals.get((stage, "lower"), 0.0) * per_pass
        metrics[f"ilp.solve_s.{stage}"] = phase_totals.get((stage, "solve"), 0.0) * per_pass
        metrics[f"ilp.nodes.{stage}"] = nodes.get(stage, 0) * per_pass
        metrics[f"ilp.rows.{stage}"] = rows.get(stage, 0) * per_pass
        metrics[f"ilp.nonzeros.{stage}"] = nonzeros.get(stage, 0) * per_pass
    metrics["ilp.not_optimal"] = not_optimal
    metrics["untraced_fraction"] = tracer.untraced_fraction()
    metrics["trace_overhead_ratio"] = tracer.overhead_ratio()
    return metrics
