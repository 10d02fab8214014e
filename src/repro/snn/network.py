"""Spiking-neural-network graph structures.

A :class:`Network` is a directed graph of integrate-and-fire neurons joined
by weighted, delayed synapses — the object the paper's ILP consumes (through
its connectivity matrix ``m[i, k]``) and the simulator executes.  The
representation follows the TENNLab framework's conventions: neurons carry a
threshold and optional leak, synapses carry a weight and an integer delay,
and a subset of neurons is marked as network inputs / outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    import networkx as nx


@dataclass(frozen=True)
class Neuron:
    """One integrate-and-fire neuron.

    ``threshold`` is the membrane potential at which the neuron fires;
    ``leak`` is the per-timestep multiplicative retention of charge
    (1.0 = perfect integrator, 0.0 = no memory, TENNLab RISP style).
    """

    id: int
    threshold: float = 1.0
    leak: float = 1.0
    is_input: bool = False
    is_output: bool = False

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError(f"neuron {self.id}: threshold must be positive")
        if not 0.0 <= self.leak <= 1.0:
            raise ValueError(f"neuron {self.id}: leak must be in [0, 1]")


@dataclass(frozen=True)
class Synapse:
    """A directed synapse ``pre -> post`` with weight and integer delay."""

    pre: int
    post: int
    weight: float = 1.0
    delay: int = 1

    def __post_init__(self) -> None:
        if self.delay < 1:
            raise ValueError(
                f"synapse {self.pre}->{self.post}: delay must be >= 1 timestep"
            )


class Network:
    """A directed SNN graph with O(1) adjacency lookups.

    Neuron ids are arbitrary non-negative integers (EONS mutations leave
    holes); :meth:`compact` renumbers them contiguously, which the mapping
    layer requires.  At most one synapse may exist per ordered neuron pair,
    matching the ILP's boolean connectivity matrix.
    """

    def __init__(self, name: str = "network") -> None:
        self.name = name
        self._neurons: dict[int, Neuron] = {}
        self._synapses: dict[tuple[int, int], Synapse] = {}
        self._out: dict[int, set[int]] = {}
        self._in: dict[int, set[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_neuron(
        self,
        neuron_id: int | None = None,
        threshold: float = 1.0,
        leak: float = 1.0,
        is_input: bool = False,
        is_output: bool = False,
    ) -> Neuron:
        """Add a neuron; auto-assigns the next free id when none is given."""
        if neuron_id is None:
            neuron_id = max(self._neurons, default=-1) + 1
        if neuron_id in self._neurons:
            raise ValueError(f"neuron id {neuron_id} already exists")
        if neuron_id < 0:
            raise ValueError("neuron ids must be non-negative")
        neuron = Neuron(neuron_id, threshold, leak, is_input, is_output)
        self._neurons[neuron_id] = neuron
        self._out[neuron_id] = set()
        self._in[neuron_id] = set()
        return neuron

    def add_synapse(
        self, pre: int, post: int, weight: float = 1.0, delay: int = 1
    ) -> Synapse:
        """Add a synapse; the ordered pair must be new and both ends exist."""
        if pre not in self._neurons:
            raise KeyError(f"pre neuron {pre} does not exist")
        if post not in self._neurons:
            raise KeyError(f"post neuron {post} does not exist")
        if (pre, post) in self._synapses:
            raise ValueError(f"synapse {pre}->{post} already exists")
        synapse = Synapse(pre, post, weight, delay)
        self._synapses[(pre, post)] = synapse
        self._out[pre].add(post)
        self._in[post].add(pre)
        return synapse

    def remove_synapse(self, pre: int, post: int) -> None:
        del self._synapses[(pre, post)]
        self._out[pre].discard(post)
        self._in[post].discard(pre)

    def remove_neuron(self, neuron_id: int) -> None:
        """Remove a neuron and all incident synapses."""
        for post in list(self._out[neuron_id]):
            self.remove_synapse(neuron_id, post)
        for pre in list(self._in[neuron_id]):
            self.remove_synapse(pre, neuron_id)
        del self._out[neuron_id]
        del self._in[neuron_id]
        del self._neurons[neuron_id]

    def replace_neuron(self, neuron: Neuron) -> None:
        """Swap neuron attributes in place (synapses untouched)."""
        if neuron.id not in self._neurons:
            raise KeyError(f"neuron {neuron.id} does not exist")
        self._neurons[neuron.id] = neuron

    def replace_synapse(self, synapse: Synapse) -> None:
        """Swap synapse attributes in place (endpoints must already exist)."""
        if (synapse.pre, synapse.post) not in self._synapses:
            raise KeyError(f"synapse {synapse.pre}->{synapse.post} does not exist")
        self._synapses[(synapse.pre, synapse.post)] = synapse

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def num_neurons(self) -> int:
        return len(self._neurons)

    @property
    def num_synapses(self) -> int:
        return len(self._synapses)

    def neuron(self, neuron_id: int) -> Neuron:
        return self._neurons[neuron_id]

    def synapse(self, pre: int, post: int) -> Synapse:
        return self._synapses[(pre, post)]

    def has_neuron(self, neuron_id: int) -> bool:
        return neuron_id in self._neurons

    def has_synapse(self, pre: int, post: int) -> bool:
        return (pre, post) in self._synapses

    def neuron_ids(self) -> list[int]:
        """Neuron ids in deterministic (sorted) order."""
        return sorted(self._neurons)

    def neurons(self) -> Iterator[Neuron]:
        for nid in self.neuron_ids():
            yield self._neurons[nid]

    def synapses(self) -> Iterator[Synapse]:
        for key in sorted(self._synapses):
            yield self._synapses[key]

    def predecessors(self, neuron_id: int) -> set[int]:
        """Neurons with a synapse *into* ``neuron_id`` (its input axons)."""
        return set(self._in[neuron_id])

    def successors(self, neuron_id: int) -> set[int]:
        return set(self._out[neuron_id])

    def fan_in(self, neuron_id: int) -> int:
        return len(self._in[neuron_id])

    def fan_out(self, neuron_id: int) -> int:
        return len(self._out[neuron_id])

    def input_ids(self) -> list[int]:
        return [n.id for n in self.neurons() if n.is_input]

    def output_ids(self) -> list[int]:
        return [n.id for n in self.neurons() if n.is_output]

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Network":
        out = Network(name or self.name)
        for neuron in self._neurons.values():
            out._neurons[neuron.id] = neuron
            out._out[neuron.id] = set(self._out[neuron.id])
            out._in[neuron.id] = set(self._in[neuron.id])
        out._synapses = dict(self._synapses)
        return out

    def compact(self) -> tuple["Network", dict[int, int]]:
        """Renumber neurons to 0..n-1 (sorted order); returns (net, old->new)."""
        mapping = {old: new for new, old in enumerate(self.neuron_ids())}
        out = Network(self.name)
        for old in self.neuron_ids():
            neuron = self._neurons[old]
            out._neurons[mapping[old]] = replace(neuron, id=mapping[old])
            out._out[mapping[old]] = set()
            out._in[mapping[old]] = set()
        for (pre, post), syn in self._synapses.items():
            new_syn = replace(syn, pre=mapping[pre], post=mapping[post])
            out._synapses[(new_syn.pre, new_syn.post)] = new_syn
            out._out[new_syn.pre].add(new_syn.post)
            out._in[new_syn.post].add(new_syn.pre)
        return out, mapping

    def is_compact(self) -> bool:
        ids = self.neuron_ids()
        return ids == list(range(len(ids)))

    def pred_sets(self) -> dict[int, set[int]]:
        """Connectivity matrix as predecessor sets: ``m[i][k]`` ⇔ k in out[i].

        This is the ``m[i, k]`` of the paper (neuron i takes input from k),
        keyed by neuron id.
        """
        return {nid: set(self._in[nid]) for nid in self.neuron_ids()}

    def subnetwork(self, keep: Iterable[int], name: str | None = None) -> "Network":
        """Induced subgraph on ``keep`` (ids preserved, not compacted)."""
        keep_set = set(keep)
        missing = keep_set - set(self._neurons)
        if missing:
            raise KeyError(f"unknown neuron ids {sorted(missing)}")
        out = Network(name or f"{self.name}-sub")
        for nid in sorted(keep_set):
            neuron = self._neurons[nid]
            out._neurons[nid] = neuron
            out._out[nid] = set()
            out._in[nid] = set()
        for (pre, post), syn in self._synapses.items():
            if pre in keep_set and post in keep_set:
                out._synapses[(pre, post)] = syn
                out._out[pre].add(post)
                out._in[post].add(pre)
        return out

    def to_networkx(self) -> nx.DiGraph:
        """Export to a networkx DiGraph (weights/delays as edge attrs)."""
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        for neuron in self.neurons():
            graph.add_node(
                neuron.id,
                threshold=neuron.threshold,
                leak=neuron.leak,
                is_input=neuron.is_input,
                is_output=neuron.is_output,
            )
        for syn in self.synapses():
            graph.add_edge(syn.pre, syn.post, weight=syn.weight, delay=syn.delay)
        return graph

    def __repr__(self) -> str:
        return (
            f"Network({self.name!r}, neurons={self.num_neurons}, "
            f"synapses={self.num_synapses})"
        )
