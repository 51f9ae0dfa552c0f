"""Tests for algorithm N1 and the polite renaming variant."""

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.naming.namespace import NameSpace
from repro.naming.renaming import (
    PoliteRenaming,
    RandomizedRenaming,
    conflicting_edges,
    is_locally_unique,
    new_id,
)
from repro.graph.generators import complete_topology, line_topology, \
    uniform_topology
from repro.util.errors import ConfigurationError, ConvergenceError


class TestNewId:
    def test_keeps_non_conflicting_name(self, rng):
        space = NameSpace(10)
        assert new_id(3, [1, 2], space, rng) == 3

    def test_redraws_on_conflict(self, rng):
        space = NameSpace(10)
        name = new_id(3, [3, 4], space, rng)
        assert name not in {3, 4}

    def test_redraws_invalid_name(self, rng):
        space = NameSpace(10)
        assert new_id(None, [], space, rng) in space
        assert new_id(99, [], space, rng) in space


class TestConflicts:
    def test_detects_conflicting_edge(self):
        graph = line_topology(3).graph
        ids = {0: 1, 1: 1, 2: 2}
        assert conflicting_edges(graph, ids) == [(0, 1)]
        assert not is_locally_unique(graph, ids)

    def test_distant_duplicates_allowed(self):
        graph = line_topology(3).graph
        ids = {0: 1, 1: 2, 2: 1}
        assert is_locally_unique(graph, ids)


class TestRandomizedRenaming:
    def test_stabilizes_on_random_graph(self, rng):
        topo = uniform_topology(60, 0.2, rng=3)
        result = RandomizedRenaming().run(topo.graph, rng=rng)
        assert result.stable
        assert is_locally_unique(topo.graph, result.ids)

    def test_stabilizes_from_all_equal_names(self, rng):
        topo = complete_topology(6)
        initial = {node: 0 for node in topo.graph}
        result = RandomizedRenaming(namespace=NameSpace(100)).run(
            topo.graph, rng=rng, initial_ids=initial)
        assert is_locally_unique(topo.graph, result.ids)
        assert result.redraw_rounds >= 1

    def test_names_stay_in_namespace(self, rng):
        topo = uniform_topology(40, 0.25, rng=5)
        space = NameSpace(
            max(topo.graph.max_degree() ** 2, topo.graph.max_degree() + 2))
        result = RandomizedRenaming(namespace=space).run(topo.graph, rng=rng)
        assert all(name in space for name in result.ids.values())

    def test_history_recorded_when_asked(self, rng):
        topo = line_topology(4)
        renamer = RandomizedRenaming(keep_history=True)
        result = renamer.run(topo.graph, rng=rng)
        assert len(result.history) == result.rounds

    def test_initial_ids_must_cover(self, rng):
        topo = line_topology(3)
        with pytest.raises(ConfigurationError):
            RandomizedRenaming().run(topo.graph, rng=rng, initial_ids={0: 1})

    def test_convergence_budget_enforced(self, rng):
        # Namespace of exactly delta+1 on a complete graph: legal but slow;
        # a budget of 1 round cannot possibly resolve an all-zero start.
        topo = complete_topology(4)
        initial = {node: 0 for node in topo.graph}
        renamer = RandomizedRenaming(namespace=NameSpace(5), max_rounds=1)
        with pytest.raises(ConvergenceError):
            renamer.run(topo.graph, rng=rng, initial_ids=initial)


class TestPoliteRenaming:
    def test_stabilizes_on_random_graph(self, rng):
        topo = uniform_topology(60, 0.2, rng=4)
        result = PoliteRenaming().run(topo.graph, rng=rng,
                                      tie_ids=topo.ids)
        assert is_locally_unique(topo.graph, result.ids)

    def test_larger_id_keeps_its_name(self, rng):
        # On a conflicting pair, the larger normal id must not re-draw.
        topo = line_topology(2)
        initial = {0: 7, 1: 7}
        result = PoliteRenaming(namespace=NameSpace(50)).run(
            topo.graph, rng=rng, initial_ids=initial)
        assert result.ids[1] == 7
        assert result.ids[0] != 7

    def test_no_conflict_means_one_round(self, rng):
        topo = line_topology(3)
        initial = {0: 1, 1: 2, 2: 3}
        result = PoliteRenaming(namespace=NameSpace(50)).run(
            topo.graph, rng=rng, initial_ids=initial)
        assert result.rounds == 1
        assert result.redraw_rounds == 0
        assert result.ids == initial

    def test_typical_build_takes_about_two_rounds(self, rng):
        # The Table 3 regime: a dense random deployment stabilizes in ~2
        # rounds with the delta^2 namespace.
        topo = uniform_topology(300, 0.07, rng=11)
        result = PoliteRenaming().run(topo.graph, rng=rng, tie_ids=topo.ids)
        assert result.rounds <= 4

    def test_incremental_repair_keeps_most_names(self, rng):
        topo = uniform_topology(80, 0.2, rng=6)
        first = PoliteRenaming().run(topo.graph, rng=rng, tie_ids=topo.ids)
        # Corrupt two names, re-run seeded with the rest.
        corrupted = dict(first.ids)
        nodes = sorted(topo.graph.nodes)[:2]
        for node in nodes:
            corrupted[node] = 0
        second = PoliteRenaming().run(topo.graph, rng=rng,
                                      initial_ids=corrupted,
                                      tie_ids=topo.ids)
        unchanged = sum(second.ids[n] == corrupted[n] for n in topo.graph)
        assert unchanged >= len(topo.graph) - 4


class TestFirstRoundDraw:
    """The first round draws every name in one vector call; it must
    equal one ``NameSpace.sample`` per node, and leave the generator
    where those draws would."""

    SIZES = [1, 2, 3, 97, 2**31 - 1, 2**32, 2**32 + 5, 10**12]

    @pytest.mark.parametrize("renaming", [PoliteRenaming, RandomizedRenaming])
    @pytest.mark.parametrize("size", SIZES)
    def test_matches_per_node_sampling(self, renaming, size):
        space = NameSpace(size)
        # No edges: every draw is final, so the run stops after it.
        graph = Graph(nodes=range(40))
        for seed in range(8):
            drawn = np.random.default_rng(seed)
            result = renaming(namespace=space).run(graph, rng=drawn)
            sampled = np.random.default_rng(seed)
            expected = {node: space.sample(sampled) for node in graph}
            assert result.ids == expected
            assert result.rounds == 1
            assert drawn.bit_generator.state == sampled.bit_generator.state

    @pytest.mark.parametrize("size", [97, 2**32 + 5])
    def test_first_round_of_a_conflicted_run(self, size):
        topology = uniform_topology(60, 0.3, rng=3)
        space = NameSpace(size)
        result = PoliteRenaming(namespace=space, keep_history=True).run(
            topology.graph, rng=np.random.default_rng(11))
        sampled = np.random.default_rng(11)
        assert result.history[0] == {node: space.sample(sampled)
                                     for node in topology.graph}
