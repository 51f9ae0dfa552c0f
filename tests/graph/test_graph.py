"""Unit tests for the core Graph structure."""

import pickle
import re

import numpy as np
import pytest

from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.util.errors import TopologyError
from tests.oracles.graph import adjacency_of, assert_symmetric, reference_adjacency


def make_path(n):
    return Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert len(graph) == 0
        assert graph.nodes == []
        assert graph.edges == []
        assert graph.max_degree() == 0

    def test_nodes_only(self):
        graph = Graph(nodes=[1, 2, 3])
        assert len(graph) == 3
        assert graph.edge_count() == 0

    def test_edges_create_endpoints(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        assert set(graph.nodes) == {1, 2, 3}
        assert graph.edge_count() == 2

    def test_duplicate_node_add_is_idempotent(self):
        graph = Graph(nodes=[1, 1], edges=[(1, 2)])
        assert graph.nodes == [1, 2]

    def test_duplicate_edge_add_is_idempotent(self):
        graph = Graph(edges=[(1, 2), (1, 2), (2, 1)])
        assert graph.edge_count() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop on node 5"):
            Graph(edges=[(1, 2), (5, 5)])

    def test_node_order_is_first_seen(self):
        graph = Graph(nodes=[3, 1], edges=[(2, 1), (4, 3), (5, 2)])
        assert graph.nodes == [3, 1, 2, 4, 5]
        assert list(graph.to_csr().ids) == graph.nodes

    def test_string_nodes(self):
        graph = Graph(edges=[("a", "b")])
        assert graph.has_edge("a", "b")


class TestNeighborhoods:
    def test_neighbors_excludes_self(self):
        graph = Graph(edges=[(1, 2), (1, 3)])
        assert graph.neighbors(1) == {2, 3}

    def test_neighbors_of_missing_node_raises(self):
        with pytest.raises(TopologyError):
            Graph().neighbors(1)

    def test_neighbors_returns_a_copy(self):
        graph = Graph(edges=[(1, 2)])
        view = graph.neighbors(1)
        view.add(99)
        assert graph.neighbors(1) == {2}

    def test_closed_neighbors(self):
        graph = Graph(edges=[(1, 2), (1, 3)])
        assert graph.closed_neighbors(1) == {1, 2, 3}

    def test_degree_and_max_degree(self):
        graph = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3)])
        assert graph.degree(1) == 3
        assert graph.degree(4) == 1
        assert graph.max_degree() == 3

    def test_k_neighborhood_on_path(self):
        graph = make_path(7)
        assert graph.k_neighborhood(3, 1) == {2, 4}
        assert graph.k_neighborhood(3, 2) == {1, 2, 4, 5}
        assert graph.k_neighborhood(3, 3) == {0, 1, 2, 4, 5, 6}
        assert graph.k_neighborhood(3, 10) == {0, 1, 2, 4, 5, 6}

    def test_k_neighborhood_excludes_self_even_in_cycles(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        assert 0 not in graph.k_neighborhood(0, 5)
        assert graph.k_neighborhood(0, 2) == {1, 2}

    def test_k_neighborhood_requires_positive_k(self):
        graph = make_path(3)
        with pytest.raises(TopologyError):
            graph.k_neighborhood(1, 0)

    def test_k_neighborhood_matches_paper_definition(self):
        # N^i = N^{i-1} union neighbors of N^{i-1}, minus p itself.
        graph = make_path(6)
        n1 = graph.k_neighborhood(2, 1)
        expanded = set(n1)
        for q in n1:
            expanded |= graph.neighbors(q)
        expanded.discard(2)
        assert graph.k_neighborhood(2, 2) == expanded


class TestQueries:
    def test_edges_lists_each_edge_once(self):
        graph = Graph(edges=[(1, 2), (2, 3), (3, 1)])
        edges = graph.edges
        assert len(edges) == 3
        assert len({frozenset(e) for e in edges}) == 3

    def test_edges_come_in_csr_order(self):
        graph = Graph(nodes=["c", "a", "b"], edges=[("b", "a"), ("c", "b")])
        assert graph.edges == [("c", "b"), ("a", "b")]

    def test_edge_count(self):
        graph = make_path(5)
        assert graph.edge_count() == 4

    def test_contains_and_iter(self):
        graph = Graph(nodes=[1, 2])
        assert 1 in graph
        assert 9 not in graph
        assert sorted(graph) == [1, 2]

    def test_induced_subgraph(self):
        graph = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)])
        sub = graph.induced_subgraph({1, 2, 3})
        assert set(sub.nodes) == {1, 2, 3}
        assert sub.has_edge(1, 2)
        assert sub.has_edge(2, 3)
        assert not sub.has_edge(3, 4)
        assert sub.edge_count() == 2

    def test_induced_subgraph_node_order_is_set_order(self):
        nodes = ["x", "d", "q", "a"]
        graph = Graph(nodes=nodes, edges=[("x", "d"), ("q", "a")])
        assert graph.induced_subgraph(nodes).nodes == list(set(nodes))

    def test_induced_subgraph_unknown_node_raises(self):
        graph = make_path(3)
        with pytest.raises(TopologyError, match=re.escape("[99]")):
            graph.induced_subgraph({0, 99})

    def test_check_symmetry_detects_corruption(self):
        one_way = CSRAdjacency([0, 1, 1], [1], [0, 1])  # 0 -> 1 only
        with pytest.raises(AssertionError, match="asymmetric"):
            assert_symmetric(Graph._from_csr(one_way))

    def test_induced_subgraph_is_independent(self):
        graph = make_path(3)
        sub = graph.induced_subgraph({0, 1})
        graph.adopt_csr(Graph(nodes=range(3)).to_csr(), removed=2)
        assert sub.has_edge(0, 1)
        assert not graph.has_edge(0, 1)

    def test_repr_mentions_size(self):
        assert "n=3" in repr(make_path(3))


class TestBulkConstruction:
    def test_from_pair_array_with_count(self):
        graph = Graph.from_pair_array(np.array([[0, 1], [1, 2]]), 5)
        assert graph.nodes == [0, 1, 2, 3, 4]
        assert graph.edge_count() == 2
        assert graph.degree(4) == 0  # isolated nodes preserved
        assert_symmetric(graph)

    def test_from_pair_array_with_identifiers(self):
        graph = Graph.from_pair_array(np.array([[0, 2]]), ["a", "b", "c"])
        assert graph.has_edge("a", "c")
        assert graph.degree("b") == 0

    def test_from_pair_array_empty(self):
        graph = Graph.from_pair_array(np.empty((0, 2), dtype=np.int64), 3)
        assert len(graph) == 3
        assert graph.edge_count() == 0

    def test_from_pair_array_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            Graph.from_pair_array(np.array([[1, 1]]), 3)

    def test_from_pair_array_rejects_out_of_range(self):
        with pytest.raises(TopologyError):
            Graph.from_pair_array(np.array([[0, 5]]), 3)

    def test_from_pair_array_rejects_duplicate_ids(self):
        with pytest.raises(TopologyError):
            Graph.from_pair_array(np.array([[0, 1]]), ["a", "a"])

    def test_from_pair_array_is_csr_first(self):
        graph = Graph.from_pair_array(np.array([[1, 2], [0, 1]]), 4)
        csr = graph.to_csr()
        assert csr.indptr.tolist() == [0, 1, 3, 4, 4]
        assert csr.indices.tolist() == [1, 0, 2, 1]
        assert graph.degree(1) == 2 and graph.neighbors(1) == {0, 2}
        assert adjacency_of(graph) == {0: {1}, 1: {0, 2}, 2: {1}, 3: set()}

    def test_from_pair_array_canonicalizes_arbitrary_rows(self):
        canonical = Graph.from_pair_array(
            np.array([[0, 1], [0, 3], [1, 2], [2, 3]]), 4).to_csr()
        messy = Graph.from_pair_array(
            np.array([[3, 2], [1, 0], [0, 1], [2, 1], [0, 3], [2, 3]]),
            4).to_csr()
        assert messy.indptr.tolist() == canonical.indptr.tolist()
        assert messy.indices.tolist() == canonical.indices.tolist()

    def test_from_pair_array_matches_add_edge_loop(self):
        pairs = np.array([[0, 1], [0, 3], [1, 2], [2, 3]])
        bulk = Graph.from_pair_array(pairs, 4)
        assert adjacency_of(bulk) == reference_adjacency(range(4),
                                                         pairs.tolist())
        assert bulk.edges == Graph(nodes=range(4), edges=pairs.tolist()).edges


class TestCSRSnapshot:
    def test_to_csr_is_cached(self):
        graph = make_path(4)
        assert graph.to_csr() is graph.to_csr()

    def test_mutations_invalidate_snapshot(self):
        # A rebase is the only structural change a graph takes.
        graph = make_path(4)
        ring = Graph(nodes=range(4), edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
        graph.adopt_csr(ring.to_csr(), added=1)
        assert graph.to_csr() is ring.to_csr()
        assert graph.has_edge(0, 3) and graph.edge_count() == 4
        with pytest.raises(TopologyError, match="shape"):
            graph.adopt_csr(make_path(4).to_csr())

    def test_from_pair_array_prebuilds_snapshot(self):
        graph = Graph.from_pair_array(np.array([[0, 1]]), 2)
        assert graph.to_csr().edge_count() == 1

    def test_pickle_drops_snapshot(self):
        graph = Graph(edges=[("b", "a"), ("a", "c")])
        restored = pickle.loads(pickle.dumps(graph))
        assert restored.to_csr() is not graph.to_csr()
        assert restored.nodes == graph.nodes
        assert adjacency_of(restored) == adjacency_of(graph)

    def test_snapshot_reflects_structure(self):
        graph = Graph(edges=[("b", "a"), ("a", "c")])
        csr = graph.to_csr()
        assert list(csr.ids) == ["b", "a", "c"]  # insertion order
        index = csr.index_of
        assert csr.has_edge(index["a"], index["b"])
        assert not csr.has_edge(index["b"], index["c"])
        assert csr.edge_count() == 2
