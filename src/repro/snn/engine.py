"""Array-compiled networks and the vectorized LIF simulation kernel.

This is the one simulation engine.  It compiles a
:class:`~repro.snn.network.Network` once into flat CSR-style arrays and
executes the discrete-time dynamics with dense NumPy state (the scalar
loop :func:`repro.snn.simulator.reference_run` walks dicts
neuron-by-neuron: the executable specification, and the test oracle):

- membrane potentials, leaks and thresholds are ``(n,)`` vectors;
- scheduled charges live in a ``(max_delay + 1, n)`` ring buffer — the
  slot for timestep ``t`` is ``t % (max_delay + 1)``, consumed and
  recycled as the clock advances;
- firing is one boolean mask per step; outgoing deliveries are one
  sparse matrix-vector product per distinct synaptic delay (a SciPy CSR
  matrix transposed so rows are *targets*).

Equivalence with the reference loop is spike-for-spike exact: within
every ``(timestep, target)`` charge bucket the deliveries accumulate in
the reference order (external injections first, then synaptic deliveries
in fire-time order, sources ascending), so rasters and spike counts
match exactly; final potentials can differ only in the sign of zero.
The property suite in ``tests/snn/test_engine_equivalence.py`` enforces
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np
from scipy import sparse as _sparse

from .network import Network

#: Above this many staged floats, external inputs use the sparse path.
_DENSE_EXT_LIMIT = 1 << 21


@dataclass(frozen=True)
class CompiledNetwork:
    """A network flattened into CSR-style arrays for the vector kernel.

    Neuron ids map to dense indices in ascending-id order; synapses are
    grouped by pre-synaptic neuron (``indptr``/``post``/``weight``/
    ``delay``), targets ascending within each row — the same deterministic
    order the reference loop iterates.  ``delay_groups`` additionally
    splits the synapses by delay into transposed CSR matrices (rows =
    targets, columns = sources, ascending) so one spike vector per step
    turns into one mat-vec per distinct delay.
    """

    ids: np.ndarray  # (n,) neuron ids, ascending
    thresholds: np.ndarray  # (n,) float64
    leaks: np.ndarray  # (n,) float64
    indptr: np.ndarray  # (n + 1,) CSR row pointers over dense pre index
    post: np.ndarray  # (nnz,) dense post indices
    weight: np.ndarray  # (nnz,) float64
    delay: np.ndarray  # (nnz,) int64, all >= 1
    max_delay: int
    delay_groups: tuple = ()  # ((delay, csr_matrix), ...)

    @property
    def num_neurons(self) -> int:
        return int(self.ids.size)

    def index_of(self) -> dict[int, int]:
        """Neuron id -> dense index."""
        return {int(nid): idx for idx, nid in enumerate(self.ids)}

    @classmethod
    def from_network(cls, network: Network) -> "CompiledNetwork":
        ids = network.neuron_ids()
        index = {nid: pos for pos, nid in enumerate(ids)}
        n = len(ids)
        thresholds = np.empty(n, dtype=np.float64)
        leaks = np.empty(n, dtype=np.float64)
        for pos, nid in enumerate(ids):
            neuron = network.neuron(nid)
            thresholds[pos] = neuron.threshold
            leaks[pos] = neuron.leak

        indptr = np.zeros(n + 1, dtype=np.int64)
        post: list[int] = []
        weight: list[float] = []
        delay: list[int] = []
        for pos, nid in enumerate(ids):
            for succ in sorted(network.successors(nid)):
                syn = network.synapse(nid, succ)
                post.append(index[succ])
                weight.append(syn.weight)
                delay.append(syn.delay)
            indptr[pos + 1] = len(post)
        post_arr = np.asarray(post, dtype=np.int64)
        weight_arr = np.asarray(weight, dtype=np.float64)
        delay_arr = np.asarray(delay, dtype=np.int64)
        pre_arr = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(indptr)
        )

        groups: list[tuple[int, object]] = []
        if delay_arr.size:
            for d in np.unique(delay_arr):
                sel = delay_arr == d
                mat = _sparse.csr_matrix(
                    (weight_arr[sel], (post_arr[sel], pre_arr[sel])),
                    shape=(n, n),
                )
                groups.append((int(d), mat))
        return cls(
            ids=np.asarray(ids, dtype=np.int64),
            thresholds=thresholds,
            leaks=leaks,
            indptr=indptr,
            post=post_arr,
            weight=weight_arr,
            delay=delay_arr,
            max_delay=int(delay_arr.max()) if delay_arr.size else 0,
            delay_groups=tuple(groups),
        )


def _stage_inputs(
    compiled: CompiledNetwork,
    duration: int,
    input_spikes: Mapping[int, Iterable[int]] | None,
    input_charges: Iterable[tuple[int, int, float]] | None,
) -> np.ndarray | dict[int, np.ndarray]:
    """Accumulate external injections per timestep.

    Returns either a dense ``(duration, n)`` matrix (small sims) or a
    sparse ``t -> row`` dict.  Accumulation order matches the reference:
    ``input_spikes`` first (mapping order), then ``input_charges`` (list
    order) — ``np.add.at`` applies duplicate indices sequentially.
    """
    n = compiled.num_neurons
    index = compiled.index_of()
    dense = 0 <= duration * n <= _DENSE_EXT_LIMIT
    ext_mat = np.zeros((duration, n), dtype=np.float64) if dense else None
    ext_rows: dict[int, np.ndarray] = {}

    def row(t: int) -> np.ndarray:
        vec = ext_rows.get(t)
        if vec is None:
            vec = ext_rows[t] = np.zeros(n, dtype=np.float64)
        return vec

    if input_spikes:
        for nid, times in input_spikes.items():
            pos = index.get(nid)
            if pos is None:
                raise KeyError(f"input targets unknown neuron {nid}")
            thr = float(compiled.thresholds[pos])
            ts = np.asarray(list(times), dtype=np.int64)
            ts = ts[(ts >= 0) & (ts < duration)]
            if ts.size == 0:
                continue
            if ext_mat is not None:
                np.add.at(ext_mat[:, pos], ts, thr)
            else:
                for t in ts.tolist():
                    row(t)[pos] += thr
    if input_charges:
        for nid, t, amount in input_charges:
            pos = index.get(nid)
            if pos is None:
                raise KeyError(f"input targets unknown neuron {nid}")
            if 0 <= t < duration:
                if ext_mat is not None:
                    ext_mat[t, pos] += amount
                else:
                    row(t)[pos] += amount
    return ext_mat if ext_mat is not None else ext_rows


def run_compiled(
    compiled: CompiledNetwork,
    duration: int,
    input_spikes: Mapping[int, Iterable[int]] | None = None,
    input_charges: Iterable[tuple[int, int, float]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Execute the vector kernel; returns raw arrays, not a result object.

    Returns ``(spike_times, spike_ids, counts, potentials)`` where the
    first two are the raster in firing order (time-major, neuron id
    ascending within a timestep), ``counts`` is per dense index and
    ``potentials`` the final membrane state.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    n = compiled.num_neurons
    ext = _stage_inputs(compiled, duration, input_spikes, input_charges)
    ext_is_dense = isinstance(ext, np.ndarray)

    ring_len = compiled.max_delay + 1
    ring = np.zeros((ring_len, n), dtype=np.float64)
    # Pre-load externals for the first ring_len steps; later slots are
    # re-armed as the ring recycles, always *before* any delivery can
    # land there, preserving the reference's externals-first order.
    for t0 in range(min(ring_len, duration)):
        vec = ext[t0] if ext_is_dense else ext.get(t0)
        if vec is not None:
            ring[t0] = vec

    potentials = np.zeros(n, dtype=np.float64)
    leaks = compiled.leaks
    fire_at = compiled.thresholds - 1e-12
    counts = np.zeros(n, dtype=np.int64)
    fired_chunks: list[np.ndarray] = []
    step_times: list[int] = []
    spike_vec = np.empty(n, dtype=np.float64)

    for t in range(duration):
        np.multiply(potentials, leaks, out=potentials)
        slot = t % ring_len
        potentials += ring[slot]
        # Recycle the slot for timestep t + ring_len.
        nxt = t + ring_len
        if ext_is_dense:
            ring[slot] = ext[nxt] if nxt < duration else 0.0
        else:
            vec = ext.get(nxt)
            if vec is None:
                ring[slot] = 0.0
            else:
                ring[slot] = vec

        fired = np.nonzero(potentials >= fire_at)[0]
        if fired.size == 0:
            continue
        fired_chunks.append(fired)
        step_times.append(t)
        counts[fired] += 1
        potentials[fired] = 0.0

        spike_vec.fill(0.0)
        spike_vec[fired] = 1.0
        for d, mat in compiled.delay_groups:
            target_t = t + d
            if target_t < duration:
                ring[target_t % ring_len] += mat.dot(spike_vec)

    if fired_chunks:
        lens = [c.size for c in fired_chunks]
        spike_times = np.repeat(
            np.asarray(step_times, dtype=np.int64),
            np.asarray(lens, dtype=np.int64),
        )
        spike_ids = compiled.ids[np.concatenate(fired_chunks)]
    else:
        spike_times = np.empty(0, dtype=np.int64)
        spike_ids = np.empty(0, dtype=np.int64)
    return spike_times, spike_ids, counts, potentials
