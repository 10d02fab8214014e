"""The repo benchmark: one command, three workloads, end-to-end or per-layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --hv-ref 1024,50000,64 \
        --workload compile --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run that wraps the calls into each layer in
in-memory spans, reports the per-layer metrics and writes the spans to
``.perfbench-out/``.  Inputs derive from ``--seed`` only.  Every output is
checked independently (see ``common.check_mapping``); a mismatch exits 1
without printing a result.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT, SRC, CheckError, host_facts  # noqa: E402

WORKLOADS = ("compile", "sweep", "service-fleet")


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit, as ``BENCHMARK.json`` declares them.

    Every traced run reports all of them, 0 where a workload never enters
    the layer.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec["per_layer"]}


def _reference_point(text: str) -> tuple[float, ...]:
    point = tuple(float(v) for v in text.split(","))
    if len(point) != 3:
        raise argparse.ArgumentTypeError("need area,energy,latency")
    return point


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--hv-ref",
        type=_reference_point,
        required=True,
        help="fixed hypervolume reference point: area,energy_pj,latency_steps "
        "(BENCHMARK.json's command pins it)",
    )
    return parser.parse_args(argv)


def _layer_output(metrics: dict) -> dict:
    """Every per-layer metric, summing stages into the ``.all`` rows."""
    filled = dict(metrics)
    for family in ("mapping.build_s", "ilp.lower_s", "ilp.solve_s"):
        if f"{family}.all" not in filled:
            filled[f"{family}.all"] = sum(
                filled.get(f"{family}.{stage}", 0.0) for stage in ("area", "snu", "pgo")
            )
    return {
        name: {"value": float(filled.get(name, 0.0)), "unit": unit}
        for name, unit in per_layer_units().items()
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "compile":
        import compile_workload as workload
    elif args.workload == "sweep":
        import sweep_workload as workload
    else:
        import service_workload as workload

    try:
        outcome = workload.run(args)
    except CheckError as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"run did not finish: {exc}", file=sys.stderr)
        return 1

    print("# host " + json.dumps(host_facts(), sort_keys=True))
    print("# detail " + json.dumps(outcome["detail"], sort_keys=True))
    if args.trace:
        metrics = _layer_output(outcome["metrics"])
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        meta = {"workload": args.workload, "seed": args.seed, "host": host_facts()}
        outcome["tracer"].dump(path, meta)
        print(f"# spans -> {path}")
    else:
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        }
    for name, entry in metrics.items():
        print(f"{name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
