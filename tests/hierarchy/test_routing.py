"""Tests for hierarchical routing."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering.result import Clustering
from repro.graph.generators import Topology, line_topology, uniform_topology
from repro.graph.graph import Graph
from repro.graph.paths import bfs_distances, is_connected
from repro.hierarchy.hierarchy import Hierarchy, HierarchyLevel, build_hierarchy
from repro.hierarchy.overlay import overlay_topology
from repro.hierarchy.routing import (
    UNREACHABLE,
    hierarchical_route,
    route_stretch,
)
from repro.util.errors import TopologyError
from repro.workload.generators import Request
from repro.workload.serve import CachedRouter


@pytest.fixture(scope="module")
def connected_hierarchy():
    for seed in range(20):
        topo = uniform_topology(150, 0.15, rng=seed)
        if is_connected(topo.graph):
            return topo, build_hierarchy(topo, rng=seed)
    raise AssertionError("no connected deployment found")


def _overlay(topology, parents):
    return overlay_topology(topology, Clustering(topology.graph, parents))


class TestShortestPath:
    """The overlay head path: a kernel BFS over head ranks."""

    def test_trivial(self):
        overlay = _overlay(line_topology(3), {0: 0, 1: 1, 2: 2})
        assert overlay.head_path(1, 1) == (1,)

    def test_on_line(self):
        # Heads 0, 2, 4, 6, 8: the overlay is the line of clusters.
        topo = line_topology(10)
        overlay = _overlay(topo, {i: i - i % 2 for i in range(10)})
        assert overlay.head_path(0, 8) == (0, 2, 4, 6, 8)
        assert overlay.head_path(8, 0) == (8, 6, 4, 2, 0)

    def test_disconnected_returns_none(self):
        overlay = _overlay(Topology(Graph(nodes=[0, 1])), {0: 0, 1: 1})
        assert overlay.head_path(0, 1) is None

    def test_unknown_node_raises(self):
        overlay = _overlay(line_topology(2), {0: 0, 1: 1})
        with pytest.raises(TopologyError):
            overlay.head_path(0, 9)
        with pytest.raises(TopologyError):
            overlay.head_path(9, 0)


class TestHierarchicalRoute:
    def test_routes_are_valid_walks(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        nodes = sorted(topo.graph.nodes)
        pairs = [(nodes[i], nodes[-(i + 1)]) for i in range(10)]
        for source, destination in pairs:
            route = hierarchical_route(hierarchy, source, destination)
            assert route[0] == source
            assert route[-1] == destination
            for a, b in zip(route, route[1:]):
                assert topo.graph.has_edge(a, b), (a, b)

    def test_intra_cluster_route_is_shortest(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        clustering = hierarchy.physical.clustering
        head = max(clustering.heads,
                   key=lambda h: len(clustering.members(h)))
        members = sorted(clustering.members(head), key=repr)
        source, destination = members[0], members[-1]
        route = hierarchical_route(hierarchy, source, destination)
        flat = bfs_distances(topo.graph, source)[destination]
        assert len(route) - 1 >= flat  # cluster-internal may still detour

    def test_same_node_route(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        node = next(iter(topo.graph))
        assert hierarchical_route(hierarchy, node, node) == [node]

    def test_stretch_at_least_one(self, connected_hierarchy):
        topo, hierarchy = connected_hierarchy
        nodes = sorted(topo.graph.nodes)
        for source, destination in [(nodes[0], nodes[-1]),
                                    (nodes[3], nodes[-7])]:
            hops, flat, stretch = route_stretch(hierarchy, source,
                                                destination)
            assert hops >= flat
            assert stretch >= 1.0

    def test_disconnected_pair_returns_sentinel(self):
        graph = Graph(edges=[(0, 1), (2, 3)])
        topo = Topology(graph)
        hierarchy = build_hierarchy(topo, use_dag=False)
        result = route_stretch(hierarchy, 0, 3)
        assert result == UNREACHABLE
        assert all(math.isinf(value) for value in result)

    def test_unknown_destination_raises(self):
        graph = Graph(edges=[(0, 1)])
        hierarchy = build_hierarchy(Topology(graph), use_dag=False)
        with pytest.raises(TopologyError):
            route_stretch(hierarchy, 0, 99)
        with pytest.raises(TopologyError):
            route_stretch(hierarchy, 99, 0)


def _diamond(nodes):
    """Clusters S={0,1}, A={2,3}, B={4,5}, T={6,7} (heads 0, 2, 4, 6):
    S-A, S-B, A-T and B-T are joined, so S reaches T over two equally
    long head paths, through A or through B."""
    graph = Graph(nodes=nodes, edges=[(0, 1), (2, 3), (4, 5), (6, 7),
                                      (4, 7), (1, 5), (2, 7), (1, 3)])
    topology = Topology(graph)
    clustering = Clustering(graph, {0: 0, 1: 0, 2: 2, 3: 2,
                                    4: 4, 5: 4, 6: 6, 7: 6})
    overlay = overlay_topology(topology, clustering)
    return Hierarchy([HierarchyLevel(index=0, topology=topology,
                                     clustering=clustering,
                                     overlay=overlay)])


class TestSmallestRowParent:
    """Between equal-length head paths, the smaller-row middle head wins."""

    @pytest.mark.parametrize("nodes,head_path,route", [
        # Rows in id order: head 2 (row 2) precedes head 4 (row 4).
        (list(range(8)), (0, 2, 6), [0, 1, 3, 2, 7, 6]),
        # Cluster B's nodes first: head 4 (row 2) precedes head 2 (row 4).
        ([0, 1, 4, 5, 2, 3, 6, 7], (0, 4, 6), [0, 1, 5, 4, 7, 6]),
    ])
    def test_every_router_takes_the_smaller_row(self, nodes, head_path,
                                                 route):
        hierarchy = _diamond(nodes)
        assert hierarchical_route(hierarchy, 0, 6) == route
        assert CachedRouter(hierarchy).route(0, 6) == (route, head_path)
        served, = CachedRouter(hierarchy).route_batch(
            [Request(time=0.0, source=0, destination=6)])
        assert (served.route, served.head_path) == (route, head_path)


class TestPickleRoundTrip:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    @example(seed=0)
    def test_routes_survive_pickling(self, seed):
        topo = uniform_topology(800, 0.12, rng=seed)
        hierarchy = build_hierarchy(topo, rng=seed)
        copy = pickle.loads(pickle.dumps(hierarchy))
        nodes = sorted(topo.graph.nodes)
        rng = np.random.default_rng(seed)
        pairs = rng.choice(len(nodes), size=(200, 2))
        router, copied = CachedRouter(hierarchy), CachedRouter(copy)
        for a, b in pairs.tolist():
            source, destination = nodes[a], nodes[b]
            assert copied.route(source, destination) == \
                router.route(source, destination)
            assert hierarchical_route(copy, source, destination) == \
                hierarchical_route(hierarchy, source, destination)
