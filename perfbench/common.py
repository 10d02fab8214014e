"""Shared plumbing for the repo benchmark: statistics, spans, checks, host facts.

Nothing here imports the ``repro`` package, so these helpers stay an
independent reference for the outputs they verify.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for per-run stores, journals and spec files (removed at exit).
WORK = ROOT / ".perfbench-work"
#: Where traced runs write their span dumps.
OUT = ROOT / ".perfbench-out"

#: Tail candidates, highest first: the reported tail is the highest one with
#: at least ten samples beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class CheckError(AssertionError):
    """A program output disagreed with the benchmark's own recomputation."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond.

    With too few samples for even the median to qualify, the maximum is
    reported under percentile 100.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - max(1, math.ceil(pct / 100.0 * n)) >= 10:
            return pct, percentile(values, pct)
    return 100.0, max(values)


def median(values) -> float:
    """Nearest-rank median (so it never exceeds the reported tail)."""
    return percentile(values, 50.0) if values else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# processes and scratch space
# ----------------------------------------------------------------------
def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def import_seconds(statement: str) -> float:
    """Wall time a fresh interpreter spends executing ``statement``."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        f"{statement}\n"
        "print(time.perf_counter() - t)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


@contextmanager
def workdir(tag: str):
    """A private scratch directory inside the checkout, removed afterwards."""
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around calls into the program's layers.

    ``wrap`` swaps a module or class attribute for a timing wrapper (undone
    by ``restore``), so the program itself is never edited.  Spans nest by
    call order on one thread: each records name, start, end and parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Swap ``owner.attr`` for ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def untraced_fraction(self) -> float:
        """Share of root-span time that no child span accounts for."""
        children: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        roots = [s for s in self.spans if s["parent"] is None]
        total = sum(s["end"] - s["start"] for s in roots)
        if total <= 0:
            return 0.0
        uncovered = sum(
            max(0.0, (s["end"] - s["start"]) - children.get(s["id"], 0.0))
            for s in roots
        )
        return uncovered / total

    def overhead_ratio(self, calls: int = 20000) -> float:
        """Estimated traced / untraced time of the root spans.

        Every span cost one wrapped call; that cost is measured here on a
        no-op, so the estimate does not rest on the difference of two runs
        whose noise is larger than the overhead itself.
        """
        probe = Tracer()
        holder = SimpleNamespace(call=lambda: None)
        bare = holder.call
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        bare_s = time.perf_counter() - t0
        probe.wrap(holder, "call", "probe")
        t0 = time.perf_counter()
        for _ in range(calls):
            holder.call()
        cost = max(0.0, (time.perf_counter() - t0 - bare_s) / calls)
        roots = sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)
        if roots <= 0:
            return 1.0
        return roots / max(roots - cost * len(self.spans), 1e-9)

    def dump(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": self.spans}) + "\n")


# ----------------------------------------------------------------------
# independent output checks
# ----------------------------------------------------------------------
def network_preds(network) -> dict[int, set[int]]:
    """neuron -> presynaptic neurons, read straight off the synapse list."""
    preds: dict[int, set[int]] = {nid: set() for nid in network.neuron_ids()}
    for synapse in network.synapses():
        preds[synapse.post].add(synapse.pre)
    return preds


def architecture_slots(architecture) -> list[tuple[int, int, float]]:
    """(input rows, output columns, area) per slot, area = overhead x rows x cols."""
    return [
        (
            slot.ctype.inputs,
            slot.ctype.outputs,
            slot.ctype.overhead * slot.ctype.inputs * slot.ctype.outputs,
        )
        for slot in architecture.slots
    ]


def check_mapping(
    preds: dict[int, set[int]],
    slots: list[tuple[int, int, float]],
    assignment: dict[int, int],
    counts: dict[int, int] | None = None,
) -> dict:
    """Validate a placement from first principles and measure it.

    Every neuron is placed exactly once on an existing slot; each enabled
    slot's distinct axonal inputs fit its rows and its neurons fit its
    columns.  Returns the recomputed area, global routes and (given spike
    counts) global packets.  Raises :class:`CheckError` on any violation.
    """
    if set(assignment) != set(preds):
        raise CheckError(
            f"placement covers {len(assignment)} neurons, network has {len(preds)}"
        )
    members: dict[int, set[int]] = {}
    for neuron, slot in assignment.items():
        if not 0 <= slot < len(slots):
            raise CheckError(f"neuron {neuron} placed on unknown slot {slot}")
        members.setdefault(slot, set()).add(neuron)
    area = 0.0
    global_routes = 0
    global_packets = 0
    for slot, neurons in members.items():
        rows, cols, slot_area = slots[slot]
        inputs = set().union(*(preds[n] for n in neurons))
        if len(neurons) > cols:
            raise CheckError(f"slot {slot}: {len(neurons)} neurons > {cols} columns")
        if len(inputs) > rows:
            raise CheckError(f"slot {slot}: {len(inputs)} inputs > {rows} rows")
        area += slot_area
        remote = [k for k in inputs if assignment[k] != slot]
        global_routes += len(remote)
        if counts is not None:
            global_packets += sum(counts.get(k, 0) for k in remote)
    return {
        "area": area,
        "global_routes": global_routes,
        "global_packets": global_packets,
    }


def dominates(point, ref) -> bool:
    """Is ``point`` strictly better than ``ref`` in every (minimized) axis?"""
    return all(a < r for a, r in zip(point, ref))


def hypervolume(points, ref) -> float:
    """Exact dominated volume of minimization ``points`` below ``ref``.

    Grid decomposition: every cell between consecutive distinct coordinates
    counts when some point is <= its lower corner.  O(n^d) cells, fine for
    the few dozen points a run produces.
    """
    import itertools

    kept = [p for p in points if dominates(p, ref)]
    if not kept:
        return 0.0
    dims = len(ref)
    axes = [sorted({p[d] for p in kept} | {ref[d]}) for d in range(dims)]
    volume = 0.0
    for cell in itertools.product(*(range(len(axis) - 1) for axis in axes)):
        corner = [axes[d][cell[d]] for d in range(dims)]
        if any(all(p[d] <= corner[d] for d in range(dims)) for p in kept):
            size = 1.0
            for d in range(dims):
                size *= axes[d][cell[d] + 1] - axes[d][cell[d]]
            volume += size
    return volume
