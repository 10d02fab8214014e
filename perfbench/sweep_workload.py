"""``sweep``: the stock adaptive design-space sweep with the solver portfolio.

One pass runs ``explore_adaptive`` over the stock 24-scenario
``default_space`` with ``portfolio=True`` and ``jobs=2`` on a fresh run
store and result cache, then resumes the same sweep against that store
(which must cost zero solves).  The inputs are the stock space itself:
the adaptive driver's choices depend on scenario order and the energy
axis on the profile seed, so any seeded variation would move the
frontier it is meant to hold fixed, and the seed is accepted but unused.
Quality figures come from the first pass's ILP-tier results; the
hypervolume is taken against the fixed reference point passed on the
command line.
"""

from __future__ import annotations

import math
import time

import numpy as np

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
    workdir,
)

SETUP_REPEATS = 3
JOBS = 2
STAGES = ("area", "snu")


def stock_space():
    from repro.dse import default_space

    return default_space()


def sweep_pass(space, store_path):
    """Adaptive sweep on a fresh store, then its resume; returns both results."""
    from repro import ResultCache
    from repro.dse import Explorer, RunStore, explore_adaptive

    with RunStore(store_path) as store:
        explorer = Explorer(store=store, jobs=JOBS, portfolio=True, cache=ResultCache())
        first = explore_adaptive(space, explorer)
    t_resume = time.perf_counter()
    with RunStore(store_path) as store:
        explorer = Explorer(store=store, jobs=JOBS, portfolio=True, cache=ResultCache())
        resumed = explore_adaptive(space, explorer)
    return first, resumed, time.perf_counter() - t_resume


def check_pass(first, resumed, registry) -> tuple[dict, int, int]:
    """Validate every ILP-tier answer and the resume; returns quality figures."""
    scenarios = first.meta["scenarios"]
    failed = sum(1 for r in first.results if not r.ok)
    failed += sum(1 for r in resumed.results if not r.ok)
    if resumed.ilp_solves != 0:
        raise CheckError(f"resume re-solved {resumed.ilp_solves} stage(s)")
    if {r.fingerprint for r in resumed.ok_results()} != {
        r.fingerprint for r in first.ok_results()
    }:
        raise CheckError("resume answered a different scenario set")
    area = routes = packets = 0.0
    points = []
    for result in first.ok_results():
        scenario = result.scenario
        network = registry.network(scenario.workload)
        measured = check_mapping(
            network_preds(network),
            architecture_slots(registry.pool(scenario)),
            result.assignment,
            registry.profile(scenario.workload),
        )
        obj = result.objectives
        if measured["area"] != obj.area or measured["global_packets"] != obj.global_packets:
            raise CheckError(f"{scenario.name}: program {obj} != {measured}")
        area += measured["area"]
        routes += measured["global_routes"]
        packets += measured["global_packets"]
        points.append((obj.area, obj.energy, obj.latency))
    return (
        {"area": area, "routes": routes, "packets": packets, "points": points},
        2 * scenarios,
        failed,
    )


def _install_tracer(tracer, sink: dict) -> None:
    import repro.batch.engine as engine
    import repro.dse.drivers as drivers
    import repro.dse.explorer as explorer_mod
    import repro.profile.profiler as profiler
    from repro import BatchMapper
    from repro.dse import Explorer, RunStore, ScenarioRegistry

    tracer.wrap(ScenarioRegistry, "fingerprint", "dse.fingerprint")
    tracer.wrap(profiler, "collect_profile", "profile.collect")
    tracer.wrap(Explorer, "evaluate_greedy", "dse.greedy_tier")
    tracer.wrap(Explorer, "evaluate_ilp", "dse.ilp_tier")
    tracer.wrap(explorer_mod, "evaluate_objectives", "dse.objectives")
    tracer.wrap(explorer_mod, "nondominated_mask", "dse.pareto")
    tracer.wrap(drivers, "pareto_rank", "dse.pareto")
    tracer.wrap(drivers, "crowding_distance", "dse.pareto")
    tracer.wrap(RunStore, "record", "dse.store_record")

    original_map_all = BatchMapper.map_all

    def map_all(self, *args, **kwargs):
        with tracer.span("batch.map_all"):
            result = original_map_all(self, *args, **kwargs)
        sink.setdefault("records", []).extend(result.records)
        return result

    tracer.patch(BatchMapper, "map_all", map_all)

    pool_class = engine.ProcessPoolExecutor

    class CountingPool(pool_class):
        def __init__(self, *args, **kwargs):
            sink["pool_starts"] = sink.get("pool_starts", 0) + 1
            super().__init__(*args, **kwargs)

    tracer.patch(engine, "ProcessPoolExecutor", CountingPool)


def run(args) -> dict:
    from common import Tracer

    setups = [
        import_seconds("from repro.dse import explore_adaptive")
        for _ in range(SETUP_REPEATS)
    ]
    from repro.dse import ScenarioRegistry
    from repro.dse import hypervolume as program_hypervolume

    space = stock_space()
    registry = ScenarioRegistry()
    tracer = Tracer() if args.trace else None
    sink: dict = {}
    if tracer is not None:
        _install_tracer(tracer, sink)

    latencies: list[float] = []
    attempted = failed = 0
    passes = 0
    quality = None
    layer = {"resume_s": 0.0, "ilp_solves": 0, "pruned": 0}
    with workdir("sweep") as scratch:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            t0 = time.perf_counter()
            store_path = scratch / f"runs-{passes}.jsonl"
            if tracer is not None:
                with tracer.span("sweep.request"):
                    first, resumed, resume_s = sweep_pass(space, store_path)
            else:
                first, resumed, resume_s = sweep_pass(space, store_path)
            latencies.append(time.perf_counter() - t0)
            figures, tried, bad = check_pass(first, resumed, registry)
            attempted += tried
            failed += bad
            if quality is None:
                quality = figures
            layer["resume_s"] += resume_s
            layer["ilp_solves"] += first.ilp_solves
            layer["pruned"] += len(first.pruned)
            passes += 1

    if tracer is not None:
        tracer.restore()
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": _layer_metrics(tracer, sink, layer, passes),
            "tracer": tracer,
            "detail": {
                "passes": passes,
                "traced_mappings_per_s": attempted / sum(latencies),
            },
        }

    tail_pct, tail_value = tail(latencies)
    volume = hypervolume(quality["points"], args.hv_ref)
    reference = program_hypervolume(np.asarray(quality["points"]), np.asarray(args.hv_ref))
    if not math.isclose(volume, reference, rel_tol=1e-9):
        raise CheckError(f"hypervolume {volume} != program's {reference}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": (median(setups), "s"),
            "mappings_per_s": (attempted / sum(latencies), "1/s"),
            "latency_p50_s": (median(latencies), "s"),
            "latency_tail_s": (tail_value, "s"),
            "area_total": (quality["area"], "memristors"),
            "global_routes_total": (quality["routes"], "count"),
            "global_packets_total": (quality["packets"], "count"),
            "hypervolume": (volume, "mem.pJ.steps"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        "detail": {
            "passes": passes,
            "tail_percentile": tail_pct,
            "ilp_results": len(quality["points"]),
            "hv_points_outside_ref": sum(
                not dominates(p, args.hv_ref) for p in quality["points"]
            ),
        },
    }


def _layer_metrics(tracer, sink, layer, passes) -> dict:
    """Per-layer figures per sweep pass."""
    from repro.batch.portfolio import winning_arm

    per_pass = 1.0 / passes
    records = sink.get("records", [])
    phase_totals: dict[tuple[str, str], float] = {}
    nodes: dict[str, int] = {}
    wins: dict[str, int] = {}
    lp_round = exact = 0.0
    not_optimal = 0
    hits = sum(1 for r in records if r.from_cache)
    for record in records:
        if record.from_cache:
            continue
        for stage, entry in record.stages.items():
            solve = entry.solve_result
            if solve is None:
                continue
            if solve.status.value != "optimal":
                not_optimal += 1
            nodes[stage] = nodes.get(stage, 0) + solve.node_count
            phases = [(p, s) for p, s in solve.phases if p != "build"]
            for phase, seconds in solve.phases:
                phase_totals[(stage, phase)] = phase_totals.get((stage, phase), 0.0) + seconds
            phase_totals[(stage, "race")] = (
                phase_totals.get((stage, "race"), 0.0) + solve.wall_time
            )
            arm = winning_arm(solve.backend)
            if arm is None:
                continue
            wins[arm] = wins.get(arm, 0) + 1
            # The race reports the portfolio's shared lowering, then the
            # winner's own phases, and the summed wall time of every arm;
            # the losing arm's share is the remainder.
            own_arm = sum(seconds for _, seconds in phases[1:])
            other = max(0.0, solve.wall_time - own_arm)
            if arm == "lp_round":
                lp_round += own_arm
                exact += other
            else:
                exact += own_arm
                lp_round += other
    metrics = {
        "profile.collect_s": tracer.total("profile.collect") * per_pass,
        "batch.map_all_s": tracer.total("batch.map_all") * per_pass,
        "batch.map_all_calls": tracer.count("batch.map_all") * per_pass,
        "batch.pool_starts": sink.get("pool_starts", 0) * per_pass,
        "batch.cache_hit_ratio": hits / len(records) if records else 0.0,
        "dse.fingerprint_s": tracer.total("dse.fingerprint") * per_pass,
        "dse.greedy_tier_s": tracer.total("dse.greedy_tier") * per_pass,
        "dse.ilp_tier_s": tracer.total("dse.ilp_tier") * per_pass,
        "dse.objectives_s": tracer.total("dse.objectives") * per_pass,
        "dse.pareto_s": tracer.total("dse.pareto") * per_pass,
        "dse.store_record_s": tracer.total("dse.store_record") * per_pass,
        "dse.store_records": tracer.count("dse.store_record") * per_pass,
        "dse.resume_s": layer["resume_s"] * per_pass,
        "dse.ilp_solves": layer["ilp_solves"] * per_pass,
        "dse.pruned": layer["pruned"] * per_pass,
        "ilp.lp_round_s": lp_round * per_pass,
        "ilp.exact_arm_s": exact * per_pass,
        "ilp.not_optimal": not_optimal * per_pass,
        "untraced_fraction": tracer.untraced_fraction(),
        "trace_overhead_ratio": tracer.overhead_ratio(),
    }
    for arm in ("lp_round", "highs"):
        metrics[f"ilp.arm_wins.{arm}"] = wins.get(arm, 0) * per_pass
    for stage in STAGES:
        metrics[f"mapping.build_s.{stage}"] = phase_totals.get((stage, "build"), 0.0) * per_pass
        metrics[f"ilp.lower_s.{stage}"] = phase_totals.get((stage, "lower"), 0.0) * per_pass
        metrics[f"ilp.solve_s.{stage}"] = phase_totals.get((stage, "race"), 0.0) * per_pass
        metrics[f"ilp.nodes.{stage}"] = nodes.get(stage, 0) * per_pass
    return metrics
