"""Tests for the Clustering result object and its metrics."""

import re

import pytest

from repro.clustering.result import Clustering
from repro.graph.generators import line_topology, star_topology
from repro.graph.graph import Graph
from repro.util.errors import TopologyError


def chain_clustering():
    """0 <- 1 <- 2 <- 3: a single cluster headed by 0."""
    graph = line_topology(4).graph
    parents = {0: 0, 1: 0, 2: 1, 3: 2}
    return Clustering(graph, parents)


def two_cluster_line():
    """0 <- 1   2 -> 3: two clusters on a 4-node line."""
    graph = line_topology(4).graph
    parents = {0: 0, 1: 0, 2: 3, 3: 3}
    return Clustering(graph, parents)


class TestConstruction:
    def test_heads_are_self_parents(self):
        clustering = two_cluster_line()
        assert clustering.heads == {0, 3}

    def test_head_resolution_follows_chains(self):
        clustering = chain_clustering()
        assert clustering.head(3) == 0
        assert clustering.head(0) == 0

    def test_clusters_grouping(self):
        clustering = two_cluster_line()
        assert clustering.members(0) == {0, 1}
        assert clustering.members(3) == {2, 3}

    def test_parent_must_be_neighbor_or_self(self):
        graph = line_topology(3).graph
        with pytest.raises(TopologyError):
            Clustering(graph, {0: 2, 1: 1, 2: 2})  # 0-2 not an edge

    def test_parents_must_cover_nodes(self):
        graph = line_topology(3).graph
        with pytest.raises(TopologyError):
            Clustering(graph, {0: 0, 1: 0})

    def test_cycle_detection(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        with pytest.raises(TopologyError):
            Clustering(graph, {0: 1, 1: 2, 2: 0})

    def test_two_cycle_detection(self):
        graph = Graph(edges=[(0, 1)])
        with pytest.raises(TopologyError):
            Clustering(graph, {0: 1, 1: 0})

    def test_isolated_self_head(self):
        graph = Graph(nodes=[7])
        clustering = Clustering(graph, {7: 7})
        assert clustering.heads == {7}
        assert clustering.members(7) == {7}


class TestQueries:
    def test_is_head(self):
        clustering = two_cluster_line()
        assert clustering.is_head(0)
        assert not clustering.is_head(1)

    def test_depth(self):
        clustering = chain_clustering()
        assert clustering.depth(0) == 0
        assert clustering.depth(3) == 3

    def test_members_of_non_head_raises(self):
        with pytest.raises(TopologyError):
            two_cluster_line().members(1)

    def test_cluster_count(self):
        assert chain_clustering().cluster_count == 1
        assert two_cluster_line().cluster_count == 2


class TestMetrics:
    def test_tree_length_of_chain(self):
        assert chain_clustering().tree_length(0) == 3

    def test_tree_length_of_singleton(self):
        graph = Graph(nodes=[1])
        assert Clustering(graph, {1: 1}).tree_length(1) == 0

    def test_average_tree_length(self):
        assert two_cluster_line().average_tree_length() == 1.0

    def test_head_eccentricity_within_cluster(self):
        clustering = two_cluster_line()
        assert clustering.head_eccentricity(0) == 1
        assert clustering.head_eccentricity(3) == 1

    def test_eccentricity_uses_cluster_subgraph(self):
        # Star: center 0 heads everything; eccentricity 1 even though
        # leaf-to-leaf distance is 2.
        graph = star_topology(4).graph
        parents = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0}
        clustering = Clustering(graph, parents)
        assert clustering.head_eccentricity(0) == 1

    def test_average_head_eccentricity(self):
        assert two_cluster_line().average_head_eccentricity() == 1.0

    def test_empty_graph_metrics(self):
        clustering = Clustering(Graph(), {})
        assert clustering.average_tree_length() == 0.0
        assert clustering.average_head_eccentricity() == 0.0


class TestInvariants:
    def test_valid_clustering_passes(self):
        two_cluster_line().check_invariants()

    def test_adjacent_heads_detected(self):
        graph = line_topology(2).graph
        clustering = Clustering(graph, {0: 0, 1: 1})
        with pytest.raises(TopologyError):
            clustering.check_invariants()

    def test_adjacent_heads_allowed_when_disabled(self):
        graph = line_topology(2).graph
        clustering = Clustering(graph, {0: 0, 1: 1})
        clustering.check_invariants(heads_non_adjacent=False)

    def test_fusion_separation_detected(self):
        # Heads 0 and 2 are two hops apart on a 3-node line.
        graph = line_topology(3).graph
        clustering = Clustering(graph, {0: 0, 1: 0, 2: 2}, fusion=True)
        with pytest.raises(TopologyError):
            clustering.check_invariants(heads_non_adjacent=False)

    def test_fusion_separation_satisfied(self):
        # Heads 0 and 3 on a 4-node line are three hops apart.
        graph = line_topology(4).graph
        clustering = Clustering(graph, {0: 0, 1: 0, 2: 3, 3: 3}, fusion=True)
        clustering.check_fusion_separation()


class TestStaleClustering:
    """A clustering whose graph was rebased after construction."""

    @pytest.mark.parametrize("mutate,message", [
        (lambda graph: graph.adopt_csr(
            Graph(nodes=range(3), edges=[(0, 1)]).to_csr(), removed=1),
         "cluster of 0 is not connected; joining forest invalid"),
        (lambda graph: graph.adopt_csr(
            Graph(nodes=range(2), edges=[(0, 1)]).to_csr(), removed=1, left=1),
         "nodes not in graph: [2]"),
    ], ids=["edge-removed", "node-removed"])
    def test_eccentricity_and_invariants_raise(self, mutate, message):
        graph = line_topology(3).graph
        clustering = Clustering(graph, {0: 0, 1: 0, 2: 1})
        mutate(graph)
        with pytest.raises(TopologyError, match=re.escape(message)):
            clustering.head_eccentricity(0)
        with pytest.raises(TopologyError, match=re.escape(message)):
            clustering.check_invariants()
