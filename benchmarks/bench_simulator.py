"""Simulation & evaluation core bench: vector vs reference kernels.

Two measurements, both asserted and both emitted to
``benchmarks/BENCH_simcore.json`` so the perf trajectory is tracked
across PRs:

1. **Simulator vs. its oracle** — the same network / input program /
   duration is run through the scalar reference loop
   (``reference_run``) and the NumPy vector kernel (``Simulator``)
   across sizes and densities.  Rasters must be identical; on the
   1k-neuron / 100-timestep workload the kernel must be >= 10x faster.
2. **Delta evaluation** — the per-move objective query local search
   issues, answered by a full from-scratch ``Mapping`` evaluation versus
   the incremental ``DeltaEvaluator``.  Results must agree move for move
   and the delta path must win.

Run:  pytest benchmarks/bench_simulator.py --benchmark-only
"""

import json
import time
from pathlib import Path

import numpy as np

from bench_config import once
from repro.mapping.delta import DeltaEvaluator
from repro.mapping.greedy import greedy_first_fit
from repro.mapping.problem import MappingProblem
from repro.mapping.solution import Mapping
from repro.mca.architecture import heterogeneous_architecture
from repro.snn.generators import random_network
from repro.snn.simulator import Simulator, reference_run

OUTPUT = Path(__file__).resolve().parent / "BENCH_simcore.json"
#: Root-level copy: the cross-PR perf trajectory is read from the repo
#: root (alongside BENCH_ilp.json), so every run refreshes both.
ROOT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"

#: (neurons, synapses, duration) — sizes/densities swept by the bench.
SIM_CONFIGS = [
    (200, 800, 100),
    (1000, 5000, 100),  # the acceptance workload: >= 10x here
    (1000, 15000, 100),
    (2000, 16000, 100),
]
#: Speedup floor asserted on every 1k-neuron / 100-timestep workload.
MIN_SIM_SPEEDUP = 10.0

#: Sampled relocate moves scored by full vs delta evaluation.
NUM_MOVES = 400


def _best_of(run, repeats=3):
    """(fastest wall time, result) of ``repeats`` calls of ``run``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def _bench_simulator() -> list[dict]:
    rows = []
    for neurons, synapses, duration in SIM_CONFIGS:
        net = random_network(neurons, synapses, seed=1, name=f"b{neurons}")
        input_spikes = {
            nid: list(range(0, duration, 7)) for nid in range(0, neurons, 10)
        }
        # The kernel compiles once per network (outside the clock); the
        # oracle builds its per-neuron synapse lists inside every call.
        sim = Simulator(net)
        ref_s, ref = _best_of(
            lambda: reference_run(net, duration, input_spikes=input_spikes)
        )
        vec_s, vec = _best_of(
            lambda: sim.run(duration, input_spikes=input_spikes)
        )
        # Identity first: speed without equivalence is meaningless.
        assert vec.spikes == ref.spikes
        assert vec.spike_counts == ref.spike_counts
        neuron_steps = neurons * duration
        rows.append(
            {
                "neurons": neurons,
                "synapses": synapses,
                "duration": duration,
                "total_spikes": ref.total_spikes,
                "reference_seconds": ref_s,
                "vector_seconds": vec_s,
                "reference_neuron_steps_per_sec": neuron_steps / ref_s,
                "vector_neuron_steps_per_sec": neuron_steps / vec_s,
                "speedup": ref_s / vec_s,
            }
        )
    return rows


def _bench_delta() -> dict:
    net = random_network(120, 360, seed=5, max_fan_in=8, name="delta")
    problem = MappingProblem(net, heterogeneous_architecture(120))
    base = greedy_first_fit(problem)
    rng = np.random.default_rng(0)
    neurons = problem.network.neuron_ids()
    moves = [
        (int(rng.choice(neurons)), int(rng.integers(problem.num_slots)))
        for _ in range(NUM_MOVES)
    ]

    # Full evaluation: rebuild the mapping per candidate, as pre-delta
    # local search effectively did per move trial.
    assignment = dict(base.assignment)
    full_scores = []
    start = time.perf_counter()
    for neuron, dst in moves:
        src = assignment[neuron]
        assignment[neuron] = dst
        candidate = Mapping(problem, assignment)
        full_scores.append((candidate.area(), candidate.global_routes()))
        assignment[neuron] = src
    full_s = time.perf_counter() - start

    evaluator = DeltaEvaluator.from_mapping(base)
    delta_scores = []
    start = time.perf_counter()
    for neuron, dst in moves:
        src = evaluator.move(neuron, dst)
        delta_scores.append(evaluator.score())
        evaluator.move(neuron, src)
    delta_s = time.perf_counter() - start

    assert delta_scores == full_scores  # move-for-move equality
    assert evaluator.assignment() == base.assignment  # undone cleanly
    return {
        "neurons": 120,
        "moves": NUM_MOVES,
        "full_eval_seconds": full_s,
        "delta_eval_seconds": delta_s,
        "full_moves_per_sec": NUM_MOVES / full_s,
        "delta_moves_per_sec": NUM_MOVES / delta_s,
        "speedup": full_s / delta_s,
    }


def test_benchmark_simcore(benchmark):
    sim_rows = once(benchmark, _bench_simulator)
    delta_row = _bench_delta()

    payload = {
        "schema": "repro.bench_simcore/1",
        "source": "benchmarks/bench_simulator.py",
        "simulator": sim_rows,
        "local_search_delta": delta_row,
    }
    serialized = json.dumps(payload, indent=2) + "\n"
    OUTPUT.write_text(serialized)
    ROOT_OUTPUT.write_text(serialized)

    for row in sim_rows:
        if row["neurons"] >= 1000 and row["duration"] == 100:
            assert row["speedup"] >= MIN_SIM_SPEEDUP, (
                f"{row['neurons']}n/{row['duration']}t: "
                f"{row['speedup']:.1f}x < {MIN_SIM_SPEEDUP}x"
            )
    # Delta evaluation must deliver a measurable round speedup.
    assert delta_row["speedup"] > 2.0, (
        f"delta evaluation only {delta_row['speedup']:.1f}x faster"
    )
