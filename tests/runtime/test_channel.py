"""Tests for the radio channel models, including the tau bound."""

import pickle

import numpy as np
import pytest

from repro.graph.dynamic import DynamicTopology
from repro.graph.generators import complete_topology, line_topology, \
    star_topology, uniform_topology
from repro.graph.graph import Graph
from repro.protocols.stack import standard_stack
from repro.runtime.channel import (
    BernoulliLossChannel,
    IdealChannel,
    SlottedContentionChannel,
)
from repro.runtime.frames import Frame
from repro.runtime.simulator import StepSimulator
from repro.util.errors import ConfigurationError, TopologyError
from tests.oracles import channel as oracle


def frames_for(topology):
    return {node: Frame(sender=node, payload={"n": node})
            for node in topology.graph}


class TestIdealChannel:
    def test_every_neighbor_receives(self, rng):
        topo = star_topology(4)
        inboxes = IdealChannel().deliver(frames_for(topo), topo.graph, rng)
        assert len(inboxes[0]) == 4  # center hears all leaves
        assert len(inboxes[1]) == 1  # leaves hear only the center
        assert inboxes[1][0].sender == 0

    def test_non_neighbors_do_not_receive(self, rng):
        topo = line_topology(3)
        inboxes = IdealChannel().deliver(frames_for(topo), topo.graph, rng)
        senders_at_0 = {f.sender for f in inboxes[0]}
        assert senders_at_0 == {1}

    def test_isolated_node_gets_empty_inbox(self, rng):
        from repro.graph.generators import Topology
        from repro.graph.graph import Graph
        topo = Topology(Graph(nodes=[1]))
        inboxes = IdealChannel().deliver(frames_for(topo), topo.graph, rng)
        assert inboxes[1] == []

    def test_partial_transmissions(self, rng):
        topo = line_topology(3)
        frames = {0: Frame(sender=0)}
        inboxes = IdealChannel().deliver(frames, topo.graph, rng)
        assert len(inboxes[1]) == 1
        assert inboxes[2] == []


class TestBernoulliLossChannel:
    def test_zero_loss_equals_ideal(self, rng):
        topo = complete_topology(5)
        lossy = BernoulliLossChannel(0.0).deliver(frames_for(topo),
                                                  topo.graph, rng)
        assert all(len(inbox) == 4 for inbox in lossy.values())

    def test_loss_rate_statistics(self):
        rng = np.random.default_rng(0)
        topo = complete_topology(10)
        channel = BernoulliLossChannel(0.3)
        received = 0
        total = 0
        for _ in range(50):
            inboxes = channel.deliver(frames_for(topo), topo.graph, rng)
            received += sum(len(inbox) for inbox in inboxes.values())
            total += 10 * 9
        rate = received / total
        assert 0.65 <= rate <= 0.75

    def test_tau_property(self):
        assert BernoulliLossChannel(0.25).tau == 0.75

    def test_rejects_certain_loss(self):
        with pytest.raises(ConfigurationError):
            BernoulliLossChannel(1.0)
        with pytest.raises(ConfigurationError):
            BernoulliLossChannel(-0.1)


class TestSlottedContentionChannel:
    def test_needs_two_slots(self):
        with pytest.raises(ConfigurationError):
            SlottedContentionChannel(1)

    def test_single_pair_may_collide_on_half_duplex(self):
        # Two neighbors with 2 slots: if they pick the same slot neither
        # hears the other (half-duplex); with different slots both do.
        rng = np.random.default_rng(1)
        topo = line_topology(2)
        channel = SlottedContentionChannel(2)
        outcomes = set()
        for _ in range(60):
            inboxes = channel.deliver(frames_for(topo), topo.graph, rng)
            outcomes.add((len(inboxes[0]), len(inboxes[1])))
        assert (1, 1) in outcomes  # different slots happen
        assert (0, 0) in outcomes  # same slot happens

    def test_empirical_rate_beats_tau_bound(self):
        # On the complete graph the per-link success probability *equals*
        # ((k-1)/k)^delta, so compare against the strictly smaller bound
        # for delta+1 to keep the statistical test one-sided.
        rng = np.random.default_rng(2)
        topo = complete_topology(6)
        channel = SlottedContentionChannel(12)
        tau = channel.tau_lower_bound(topo.graph.max_degree() + 1)
        received = 0
        total = 0
        for _ in range(80):
            inboxes = channel.deliver(frames_for(topo), topo.graph, rng)
            received += sum(len(inbox) for inbox in inboxes.values())
            total += 6 * 5
        assert received / total >= tau

    def test_tau_bound_positive_constant(self):
        channel = SlottedContentionChannel(8)
        assert 0 < channel.tau_lower_bound(20) < 1

    def test_tau_bound_monotone_in_slots(self):
        few = SlottedContentionChannel(4).tau_lower_bound(10)
        many = SlottedContentionChannel(64).tau_lower_bound(10)
        assert many > few

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigurationError):
            SlottedContentionChannel(4).tau_lower_bound(-1)

    def test_collision_requires_shared_slot(self):
        # With an enormous slot count collisions become negligible.
        rng = np.random.default_rng(3)
        topo = complete_topology(4)
        channel = SlottedContentionChannel(10_000)
        inboxes = channel.deliver(frames_for(topo), topo.graph, rng)
        received = sum(len(inbox) for inbox in inboxes.values())
        assert received >= 10  # at most a couple of unlucky collisions


LOSSY = {
    "bernoulli": (lambda: BernoulliLossChannel(0.3),
                  lambda: oracle.BernoulliLossOracle(0.3)),
    "slotted": (lambda: SlottedContentionChannel(3),
                lambda: oracle.SlottedContentionOracle(3)),
}


class TestLossyNeighborMemo:
    """The lossy models scan neighbor sets memoized per (graph, CSR
    snapshot) and must draw their randomness exactly as a scan that
    calls ``graph.neighbors`` on every step does."""

    @pytest.mark.parametrize("kind", sorted(LOSSY))
    def test_trace_equals_fresh_neighbor_oracle(self, kind):
        place = np.random.default_rng(7)
        dynamics = DynamicTopology(place.uniform(0, 1, size=(40, 2)), 0.3)
        sims = [StepSimulator(dynamics.topology, standard_stack(namespace=160),
                              channel=make(), rng=11, cache_timeout=4)
                for make in LOSSY[kind]]
        for step in range(16):
            if step in (6, 11):
                # The live graph is rebased in place: same graph object,
                # new snapshot, so the memo must be rebuilt.
                update = dynamics.move(place.uniform(0, 1, size=(40, 2)))
                assert update.delta
                for sim in sims:
                    sim.set_topology(update.topology)
            fast, slow = sims
            assert fast.step() == slow.step()
            assert fast.rng.bit_generator.state == \
                slow.rng.bit_generator.state
            assert {n: r.shared for n, r in fast.runtimes.items()} == \
                {n: r.shared for n, r in slow.runtimes.items()}
            assert fast.traffic == slow.traffic

    @pytest.mark.parametrize("kind", sorted(LOSSY))
    def test_unchanged_graph_reuses_the_same_sets(self, kind, monkeypatch):
        graph = uniform_topology(30, 0.3, rng=2).graph
        frames = {node: Frame(sender=node) for node in graph}
        channel = LOSSY[kind][0]()
        channel.deliver(frames, graph, np.random.default_rng(0))
        first = channel._neighbor_sets(graph)
        calls = []
        monkeypatch.setattr(Graph, "neighbors",
                            lambda self, node: calls.append(node))
        channel.deliver(frames, graph, np.random.default_rng(1))
        assert calls == []
        assert all(channel._neighbor_sets(graph)[node] is first[node]
                   for node in graph)

    @pytest.mark.parametrize("kind", sorted(LOSSY))
    def test_pickle_drops_the_memo(self, kind):
        channel = LOSSY[kind][0]()
        topo = line_topology(4)
        channel.deliver(frames_for(topo), topo.graph, np.random.default_rng(0))
        clone = pickle.loads(pickle.dumps(channel))
        assert "_neighbor_memo" not in vars(clone)
        assert repr(clone) == repr(channel)
        assert clone.deliver(frames_for(topo), topo.graph,
                             np.random.default_rng(5)) == \
            channel.deliver(frames_for(topo), topo.graph,
                            np.random.default_rng(5))

    def test_sender_outside_the_graph_raises(self):
        topo = line_topology(3)
        frames = {9: Frame(sender=9)}
        with pytest.raises(TopologyError):
            BernoulliLossChannel(0.1).deliver(frames, topo.graph,
                                              np.random.default_rng(0))
