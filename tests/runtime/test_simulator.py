"""Tests for the synchronous step simulator."""

import pytest

from repro.graph.generators import line_topology, uniform_topology
from repro.protocols.base import Protocol
from repro.protocols.discovery import HelloProtocol
from repro.runtime.guarded import GuardedCommand, Program, always
from repro.runtime.simulator import StepSimulator
from repro.util.errors import ConfigurationError, ConvergenceError


class CountingProtocol(Protocol):
    """Counts executed steps per node; payload echoes the counter."""

    def initialize(self, runtime, rng):
        runtime.shared["count"] = 0

    def payload(self, runtime):
        return {"count": runtime.shared["count"]}

    def program(self):
        def bump(runtime, _rng):
            runtime.shared["count"] += 1
        return Program([GuardedCommand("bump", always, bump)])


class TestStepping:
    def test_step_advances_clock(self):
        sim = StepSimulator(line_topology(3), CountingProtocol(), rng=0)
        assert sim.now == 0
        sim.step()
        assert sim.now == 1

    def test_every_node_executes_once_per_step(self):
        sim = StepSimulator(line_topology(3), CountingProtocol(), rng=0)
        sim.run(4)
        assert all(value == 4 for value in sim.shared_map("count").values())

    def test_frames_deliver_previous_step_values(self):
        # A node's frame carries the payload computed *before* this step's
        # actions, so caches lag shared state by one step.
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        sim.step()  # broadcast count=0, then bump to 1
        assert sim.runtime(0).cached(1, "count") == 0
        sim.step()
        assert sim.runtime(0).cached(1, "count") == 1

    def test_run_returns_now(self):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        assert sim.run(5) == 5

    def test_run_rejects_negative(self):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        with pytest.raises(ConfigurationError):
            sim.run(-1)

    def test_same_seed_same_trace(self):
        topo = uniform_topology(20, 0.3, rng=1)
        a = StepSimulator(topo, HelloProtocol(), rng=42)
        b = StepSimulator(topo, HelloProtocol(), rng=42)
        a.run(3)
        b.run(3)
        assert a.shared_map("neighbors") == b.shared_map("neighbors")


class TestRunUntil:
    def test_stops_at_predicate(self):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        reached = sim.run_until(
            lambda s: all(v >= 3 for v in s.shared_map("count").values()),
            max_steps=10)
        assert reached == 3

    def test_settle_window(self):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        reached = sim.run_until(
            lambda s: s.now >= 2, max_steps=10, settle=3)
        assert reached == 2
        assert sim.now == 4  # 3 consecutive satisfied steps: 2, 3, 4

    def test_budget_exhaustion_raises(self):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        with pytest.raises(ConvergenceError):
            sim.run_until(lambda s: False, max_steps=5)

    def test_bad_budget_rejected(self):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        with pytest.raises(ConfigurationError):
            sim.run_until(lambda s: True, max_steps=0)

    @pytest.mark.parametrize("settle", [0, -1])
    def test_bad_settle_rejected(self, settle):
        sim = StepSimulator(line_topology(2), CountingProtocol(), rng=0)
        with pytest.raises(ConfigurationError, match="settle"):
            sim.run_until(lambda s: True, max_steps=5, settle=settle)
        assert sim.now == 0  # rejected before any step


class TestTopologyReplacement:
    def test_replace_preserves_runtimes(self):
        topo = line_topology(3)
        sim = StepSimulator(topo, CountingProtocol(), rng=0)
        sim.run(2)
        counts = sim.shared_map("count")
        sim.replace_topology(line_topology(3))
        assert sim.shared_map("count") == counts

    def test_replace_requires_same_nodes(self):
        sim = StepSimulator(line_topology(3), CountingProtocol(), rng=0)
        with pytest.raises(ConfigurationError):
            sim.replace_topology(line_topology(4))

    def test_new_edges_take_effect(self):
        from repro.graph.generators import Topology
        from repro.graph.graph import Graph
        disconnected = Topology(Graph(nodes=[0, 1]))
        sim = StepSimulator(disconnected, HelloProtocol(), rng=0,
                            cache_timeout=2)
        sim.run(2)
        assert sim.runtime(0).known_neighbors() == set()
        sim.replace_topology(Topology(Graph(edges=[(0, 1)])))
        sim.run(2)
        assert sim.runtime(0).known_neighbors() == {1}

    def test_removed_edges_fade_after_timeout(self):
        from repro.graph.generators import Topology
        from repro.graph.graph import Graph
        sim = StepSimulator(Topology(Graph(edges=[(0, 1)])),
                            HelloProtocol(), rng=0, cache_timeout=2)
        sim.run(2)
        assert sim.runtime(0).known_neighbors() == {1}
        sim.replace_topology(Topology(Graph(nodes=[0, 1])))
        sim.run(3)
        assert sim.runtime(0).known_neighbors() == set()

    def test_activation_order_cached_and_invalidated(self):
        from repro.graph.generators import Topology
        from repro.graph.graph import Graph
        sim = StepSimulator(line_topology(3), CountingProtocol(), rng=0)
        sim.step()
        assert sim._activation_order == [0, 1, 2]
        cached = sim._activation_order
        sim.step()
        assert sim._activation_order is cached  # no per-step re-sort
        # New tie identifiers must reorder activations on the next step.
        reordered = Topology(Graph(nodes=[0, 1, 2],
                                   edges=[(0, 1), (1, 2)]),
                             ids={0: 9, 1: 5, 2: 1})
        sim.replace_topology(reordered)
        assert sim._activation_order is None
        sim.step()
        assert sim._activation_order == [2, 1, 0]


class TestCorruption:
    def test_corrupt_all_nodes(self):
        sim = StepSimulator(line_topology(3), CountingProtocol(), rng=0)
        sim.corrupt(lambda runtime, _rng: runtime.shared.update(count=-5))
        assert all(v == -5 for v in sim.shared_map("count").values())

    def test_corrupt_subset(self):
        sim = StepSimulator(line_topology(3), CountingProtocol(), rng=0)
        sim.corrupt(lambda runtime, _rng: runtime.shared.update(count=-5),
                    nodes=[1])
        counts = sim.shared_map("count")
        assert counts[1] == -5
        assert counts[0] == 0
