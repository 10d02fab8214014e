"""Spike-for-spike equivalence of the vector kernel and the reference loop.

The vector kernel (:class:`Simulator`) is only allowed to be *faster*
than the scalar oracle (:func:`reference_run`), never different: on any
network (random topology, delays, leaks, inhibitory weights, self-loops)
and any input program (forced spikes + sub-threshold charges) it must
produce the identical spike raster and spike counts.  Final potentials
are compared to within a few ULP: summing a neuron's incoming charges in
a different (vectorized) order may round differently, which is a
representation detail, not a behavioral difference — the discrete spike
record stays bit-exact.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.snn.engine import CompiledNetwork
from repro.snn.network import Network
from repro.snn.simulator import Simulator, reference_run, spike_profile

pytestmark = pytest.mark.engines


@st.composite
def networks(draw):
    n = draw(st.integers(1, 10))
    net = Network("prop")
    for i in range(n):
        net.add_neuron(
            i,
            threshold=draw(
                st.floats(0.3, 3.0, allow_nan=False, allow_infinity=False)
            ),
            leak=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
            is_input=(i == 0),
        )
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=min(25, n * n),
        )
    )
    for pre, post in sorted(edges):
        net.add_synapse(
            pre,
            post,
            weight=draw(
                st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
            ),
            delay=draw(st.integers(1, 5)),
        )
    return net


@st.composite
def input_programs(draw, n, duration):
    horizon = duration + 3  # out-of-window times must be ignored
    spikes = draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.lists(st.integers(0, horizon), max_size=6),
            max_size=min(4, n),
        )
    )
    charges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, horizon),
                st.floats(-1.5, 2.0, allow_nan=False, allow_infinity=False),
            ),
            max_size=6,
        )
    )
    return spikes, charges


class TestPropertyEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(net=networks(), data=st.data())
    def test_raster_counts_and_potentials_match(self, net, data):
        duration = data.draw(st.integers(0, 30))
        spikes, charges = data.draw(input_programs(net.num_neurons, duration))
        ref = reference_run(
            net, duration, input_spikes=spikes, input_charges=charges
        )
        vec = Simulator(net).run(
            duration, input_spikes=spikes, input_charges=charges
        )
        assert vec.spikes == ref.spikes
        assert vec.spike_counts == ref.spike_counts
        assert vec.duration == ref.duration
        assert set(vec.final_potentials) == set(ref.final_potentials)
        for nid, reference in ref.final_potentials.items():
            assert vec.final_potentials[nid] == pytest.approx(
                reference, rel=1e-12, abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(net=networks(), data=st.data())
    def test_spike_index_matches_raster_scan(self, net, data):
        duration = data.draw(st.integers(0, 25))
        spikes, _ = data.draw(input_programs(net.num_neurons, duration))
        result = Simulator(net).run(duration, input_spikes=spikes)
        raster = result.spikes
        for nid in net.neuron_ids():
            expected = [t for t, fired in raster if fired == nid]
            assert result.spikes_of(nid) == expected
            train = result.spike_train(nid)
            assert len(train) == duration
            assert [t for t, bit in enumerate(train) if bit] == sorted(
                set(expected)
            )


class TestEngineSelection:
    """The one engine's input checks, and profiling against the oracle."""

    def test_vector_rejects_unknown_input_neuron(self):
        net = Network()
        net.add_neuron(0)
        with pytest.raises(KeyError):
            Simulator(net).run(3, input_spikes={9: [0]})
        with pytest.raises(KeyError):
            Simulator(net).run(3, input_charges=[(9, 0, 1.0)])

    def test_vector_rejects_negative_duration(self):
        net = Network()
        net.add_neuron(0)
        with pytest.raises(ValueError):
            Simulator(net).run(-1)

    def test_spike_profile_engine_passthrough(self):
        net = Network()
        for i in range(3):
            net.add_neuron(i, is_input=(i == 0))
        net.add_synapse(0, 1)
        net.add_synapse(1, 2)
        samples = [{0: [0]}, {0: [0, 2]}]
        expected = {nid: 0 for nid in net.neuron_ids()}
        for sample in samples:
            ref = reference_run(net, 8, input_spikes=sample)
            for nid, count in ref.spike_counts.items():
                expected[nid] += count
        assert spike_profile(net, samples, 8) == expected
        assert expected == {0: 3, 1: 3, 2: 3}


class TestCompiledNetwork:
    def test_csr_shape_and_order(self):
        net = Network()
        for i in range(4):
            net.add_neuron(i)
        net.add_synapse(2, 0, weight=0.5, delay=3)
        net.add_synapse(2, 3, weight=-1.0, delay=1)
        net.add_synapse(0, 1, weight=2.0, delay=2)
        compiled = CompiledNetwork.from_network(net)
        assert compiled.num_neurons == 4
        assert compiled.indptr.tolist() == [0, 1, 1, 3, 3]
        assert compiled.post.tolist() == [1, 0, 3]  # targets ascending per row
        assert compiled.weight.tolist() == [2.0, 0.5, -1.0]
        assert compiled.delay.tolist() == [2, 3, 1]
        assert compiled.max_delay == 3
        assert compiled.index_of() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_non_contiguous_ids(self):
        net = Network()
        for nid in (3, 7, 11):
            net.add_neuron(nid, is_input=(nid == 3))
        net.add_synapse(3, 7)
        net.add_synapse(7, 11)
        ref = reference_run(net, 5, input_spikes={3: [0]})
        vec = Simulator(net).run(5, input_spikes={3: [0]})
        assert vec.spikes == ref.spikes == [(0, 3), (1, 7), (2, 11)]

    def test_sparse_staging_path_equivalent(self, monkeypatch):
        """Past the dense-staging limit the sparse dict path kicks in."""
        import repro.snn.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_DENSE_EXT_LIMIT", 0)
        net = Network()
        net.add_neuron(0, is_input=True)
        net.add_neuron(1)
        net.add_synapse(0, 1, weight=0.6, delay=2)
        spikes = {0: [0, 3, 3, 9]}
        charges = [(1, 4, 0.5), (1, 5, -0.2), (0, 11, 1.0)]
        vec = Simulator(net).run(
            12, input_spikes=spikes, input_charges=charges
        )
        ref = reference_run(
            net, 12, input_spikes=spikes, input_charges=charges
        )
        assert vec.spikes == ref.spikes
        assert vec.final_potentials == ref.final_potentials
