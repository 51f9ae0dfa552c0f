"""Tests for the cluster overlay graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.oracle import compute_clustering
from repro.clustering.result import Clustering
from repro.graph.csr import CSRAdjacency
from repro.graph.generators import (
    Topology,
    figure1_topology,
    line_topology,
    uniform_topology,
)
from repro.graph.graph import Graph
from repro.hierarchy.overlay import gateway_for, overlay_topology
from repro.util.errors import ConfigurationError
from tests.oracles import overlay as overlay_oracle
from tests.property.strategies import graphs


@pytest.fixture
def line_overlay():
    # 6-node line clusters into {0,1,2} (head 0) and {3,4,5} (head 3)...
    # actually density clustering on a line gives one cluster; build a
    # custom clustering to control the shape.
    from repro.clustering.result import Clustering
    topo = line_topology(6)
    clustering = Clustering(topo.graph,
                            {0: 0, 1: 0, 2: 1, 3: 3, 4: 3, 5: 4})
    return topo, clustering, overlay_topology(topo, clustering)


class TestOverlayTopology:
    def test_nodes_are_heads(self, line_overlay):
        _, clustering, overlay = line_overlay
        assert set(overlay.topology.graph.nodes) == clustering.heads

    def test_adjacent_clusters_linked(self, line_overlay):
        _, _, overlay = line_overlay
        assert overlay.topology.graph.has_edge(0, 3)

    def test_gateway_realizes_the_edge(self, line_overlay):
        topo, clustering, overlay = line_overlay
        u, v = gateway_for(overlay, 0, 3)
        assert clustering.head(u) == 0
        assert clustering.head(v) == 3
        assert topo.graph.has_edge(u, v)

    def test_gateway_orientation_flips(self, line_overlay):
        _, _, overlay = line_overlay
        assert gateway_for(overlay, 0, 3) == \
            tuple(reversed(gateway_for(overlay, 3, 0)))

    def test_missing_edge_rejected(self, line_overlay):
        _, _, overlay = line_overlay
        with pytest.raises(ConfigurationError):
            gateway_for(overlay, 0, 99)

    def test_ids_inherited(self, line_overlay):
        topo, _, overlay = line_overlay
        for head in overlay.topology.graph:
            assert overlay.topology.ids[head] == topo.ids[head]

    def test_real_clustering_overlay(self):
        topo = uniform_topology(80, 0.18, rng=3)
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        overlay = overlay_topology(topo, clustering)
        # Every overlay edge must be realized by a physical border edge.
        for a, b in overlay.topology.graph.edges:
            u, v = gateway_for(overlay, a, b)
            assert topo.graph.has_edge(u, v)
            assert clustering.head(u) == a
            assert clustering.head(v) == b

    def test_positions_projected_for_heads(self):
        topo = uniform_topology(40, 0.25, rng=4)
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        overlay = overlay_topology(topo, clustering)
        assert set(overlay.topology.positions) == clustering.heads


def _two_clusters(nodes):
    """Heads 0 and 4, each a star over three members, joined by four
    border edges inserted highest-row first."""
    graph = Graph(nodes=nodes, edges=[(0, 1), (0, 2), (0, 3), (4, 5), (4, 6),
                                      (4, 7), (3, 5), (2, 6), (1, 7), (1, 6)])
    parents = {0: 0, 1: 0, 2: 0, 3: 0, 4: 4, 5: 4, 6: 4, 7: 4}
    topo = Topology(graph)
    return overlay_topology(topo, Clustering(graph, parents))


class TestLowestRowGateway:
    """The gateway of an overlay edge is its lowest (row, row) edge."""

    def test_rows_in_id_order(self):
        # Border edges (3,5) (2,6) (1,7) (1,6): the lowest is (1, 6).
        overlay = _two_clusters(range(8))
        assert gateway_for(overlay, 0, 4) == (1, 6)
        assert gateway_for(overlay, 4, 0) == (6, 1)

    def test_rows_in_reversed_id_order(self):
        # Row of node k is 7 - k: the border edges are row pairs (2,4)
        # (1,5) (0,6) (1,6), so the lowest is rows (0, 6) = nodes (7, 1).
        overlay = _two_clusters([7, 6, 5, 4, 3, 2, 1, 0])
        assert gateway_for(overlay, 0, 4) == (1, 7)
        assert gateway_for(overlay, 4, 0) == (7, 1)


def _relabeled(graph, name):
    """``graph`` with node ``k`` renamed ``name(k)``, row order kept."""
    renamed = Graph(nodes=[name(node) for node in graph.nodes],
                    edges=[(name(u), name(v)) for u, v in graph.edges])
    return Topology(renamed, ids={name(node): node for node in graph.nodes})


def _reordered(graph, order):
    return Graph(nodes=order, edges=graph.edges)


def _check_against_oracle(topo, clustering):
    overlay = overlay_topology(topo, clustering)
    graph = overlay.topology.graph
    assert list(graph.nodes) == list(clustering.heads)
    expected = overlay_oracle.gateways(topo.graph, clustering.head_of)
    assert {frozenset(edge) for edge in graph.edges} == \
        {frozenset(pair) for pair in expected}
    for (head_a, head_b), edge in expected.items():
        assert gateway_for(overlay, head_a, head_b) == edge
    row_of = {node: i for i, node in enumerate(topo.graph.nodes)}
    heads = list(clustering.heads)
    for source in heads:
        for target in heads:
            assert overlay.head_path(source, target) == overlay_oracle.head_path(
                graph, row_of, source, target)


def _random_forest(graph, data):
    """A random joining forest: each node keeps itself as parent or takes
    a neighbor drawn earlier, so parent chains cannot cycle."""
    order = data.draw(st.permutations(list(graph.nodes)))
    drawn = {}
    for node in order:
        earlier = sorted((q for q in graph.neighbors(node) if q in drawn),
                         key=repr)
        drawn[node] = data.draw(st.sampled_from([node] + earlier))
    return Clustering(graph, drawn)


class TestOverlayMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(graph=graphs(max_nodes=18, edge_bias=0.3), data=st.data())
    def test_random_graphs(self, graph, data):
        # Shuffled insertion order makes rows differ from identifiers;
        # the strategy leaves some nodes isolated.  Random forests give
        # many small clusters, hence head paths with equal-length ties.
        order = data.draw(st.permutations(list(graph.nodes)))
        name = data.draw(st.sampled_from([lambda k: k, lambda k: f"n{k}"]))
        topo = _relabeled(_reordered(graph, order), name)
        if data.draw(st.booleans()):
            clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        else:
            clustering = _random_forest(topo.graph, data)
        _check_against_oracle(topo, clustering)

    def test_figure1_string_ids(self):
        topo = figure1_topology()
        _check_against_oracle(
            topo, compute_clustering(topo.graph, tie_ids=topo.ids))

    def test_isolated_nodes_are_overlay_heads(self):
        graph = Graph(nodes=[5, 0, 3, 1, 9], edges=[(0, 1), (1, 3)])
        topo = Topology(graph)
        clustering = compute_clustering(graph, tie_ids=topo.ids)
        overlay = overlay_topology(topo, clustering)
        assert {5, 9} <= set(overlay.topology.graph.nodes)
        assert overlay.head_path(5, 9) is None
        _check_against_oracle(topo, clustering)


class TestBuildPathInvariance:
    """One edge set, three construction paths, one overlay."""

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(min_nodes=2, max_nodes=20, edge_bias=0.3),
           data=st.data())
    def test_add_edge_pair_array_and_adopt_csr_agree(self, graph, data):
        n = len(graph)
        edges = sorted(tuple(sorted(edge)) for edge in graph.edges)
        shuffled = data.draw(st.permutations(edges))
        incremental = Graph(nodes=range(n), edges=[
            (v, u) if data.draw(st.booleans()) else (u, v)
            for u, v in shuffled])
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        bulk = Graph.from_pair_array(pairs, n)
        rebased = Graph(nodes=range(n))
        rebased.adopt_csr(CSRAdjacency.from_pairs(pairs[:, 0], pairs[:, 1],
                                                  range(n)),
                          added=len(edges))
        overlays = []
        for built in (incremental, bulk, rebased):
            topo = Topology(built)
            clustering = compute_clustering(built, tie_ids=topo.ids)
            overlays.append(overlay_topology(topo, clustering))
        first = overlays[0]
        for other in overlays[1:]:
            assert other.heads == first.heads
            assert other.rank_of == first.rank_of
            assert np.array_equal(other.indptr, first.indptr)
            assert np.array_equal(other.indices, first.indices)
            assert other.exits == first.exits
            assert other.entries == first.entries
            assert list(other.topology.graph.nodes) == \
                list(first.topology.graph.nodes)
            for head in first.heads:
                assert np.array_equal(other.bfs_parents(head),
                                      first.bfs_parents(head))
