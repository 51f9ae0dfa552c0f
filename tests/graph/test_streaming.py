"""Streaming pair construction: chunked paths vs the one-shot references."""

import pickle

import numpy as np
import pytest

from repro.graph.geometry import chunk_pairs, pairs_within_range, unit_disk_graph
from repro.graph.graph import Graph
from repro.graph.quasi_udg import quasi_unit_disk_graph
from repro.util.errors import ConfigurationError, TopologyError


def random_points(seed, count):
    return np.random.default_rng(seed).uniform(0, 1, size=(count, 2))


class TestChunkPairs:
    @pytest.mark.parametrize("count", [0, 1, 2, 40, 500])
    @pytest.mark.parametrize("max_pairs", [1, 17, 1000, None])
    def test_concatenation_equals_one_shot(self, count, max_pairs):
        points = random_points(count + 1, count)
        expected = pairs_within_range(points, 0.12)
        chunks = list(chunk_pairs(points, 0.12, max_pairs=max_pairs))
        if chunks:
            got = np.concatenate(chunks)
        else:
            got = np.empty((0, 2), dtype=np.int64)
        assert np.array_equal(got, expected)

    def test_chunks_respect_max_pairs(self):
        points = random_points(7, 300)
        for chunk in chunk_pairs(points, 0.2, max_pairs=17):
            assert 0 < len(chunk) <= 17

    def test_stream_is_lexicographically_increasing(self):
        points = random_points(9, 250)
        last = (-1, -1)
        for chunk in chunk_pairs(points, 0.15, max_pairs=11):
            for i, j in chunk.tolist():
                assert i < j
                assert (i, j) > last
                last = (i, j)

    def test_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            chunk_pairs(random_points(0, 4), -0.1)
        with pytest.raises(ConfigurationError):
            chunk_pairs(np.zeros((3, 3)), 0.1)


class TestFromPairChunks:
    def test_equals_from_pair_array(self):
        points = random_points(21, 200)
        pairs = pairs_within_range(points, 0.15)
        eager = Graph.from_pair_array(pairs, len(points))
        lazy = Graph.from_pair_chunks(
            chunk_pairs(points, 0.15, max_pairs=37), len(points)
        )
        assert lazy.nodes == eager.nodes
        assert set(lazy.edges) == set(eager.edges)
        for node in eager:
            assert lazy.neighbors(node) == eager.neighbors(node)
        assert np.array_equal(lazy.to_csr().indptr, eager.to_csr().indptr)
        assert np.array_equal(lazy.to_csr().indices, eager.to_csr().indices)

    def test_csr_paths_answer_without_materializing(self):
        points = random_points(22, 150)
        graph = Graph.from_pair_chunks(chunk_pairs(points, 0.15), len(points))
        assert len(graph) == 150
        assert 3 in graph
        assert graph.degree(3) == len(graph.neighbors(3))
        assert graph.edge_count() == len(pairs_within_range(points, 0.15))

    def test_rejects_non_canonical_streams(self):
        with pytest.raises(TopologyError):
            Graph.from_pair_chunks([np.array([[1, 0]])], 3)
        with pytest.raises(TopologyError):
            Graph.from_pair_chunks([np.array([[0, 2]]), np.array([[0, 1]])], 3)
        with pytest.raises(TopologyError):
            Graph.from_pair_chunks([np.array([[0, 5]])], 3)
        with pytest.raises(TopologyError):
            Graph.from_pair_chunks([np.array([[0.5, 1.5]])], 3)

    def test_lazy_graph_pickles_compactly_and_roundtrips(self):
        points = random_points(23, 400)
        graph = Graph.from_pair_chunks(chunk_pairs(points, 0.1), len(points))
        clone = pickle.loads(pickle.dumps(graph))
        assert clone.nodes == graph.nodes
        assert set(clone.edges) == set(graph.edges)

    def test_mutation_after_streaming_build(self):
        # A rebase is the only structural change a graph takes.
        graph = Graph.from_pair_chunks([np.array([[0, 1], [1, 2]])], 4)
        wider = Graph.from_pair_array(np.array([[0, 1], [1, 2], [0, 3]]), 4)
        graph.adopt_csr(wider.to_csr(), added=1)
        assert graph.has_edge(0, 3)
        assert graph.neighbors(1) == {0, 2}


class TestStreamingUnitDisk:
    def test_streamed_equals_eager(self):
        points = random_points(31, 300)
        eager_graph, eager_pos = unit_disk_graph(points, 0.12)
        lazy_graph, lazy_pos = unit_disk_graph(points, 0.12, max_pairs=23)
        assert lazy_graph.nodes == eager_graph.nodes
        assert set(lazy_graph.edges) == set(eager_graph.edges)
        assert lazy_pos == eager_pos

    def test_streamed_respects_node_ids(self):
        points = random_points(32, 50)
        names = [f"n{i}" for i in range(len(points))]
        graph, positions = unit_disk_graph(points, 0.2, node_ids=names,
                                           max_pairs=7)
        assert graph.nodes == names
        assert set(positions) == set(names)


class TestStreamingQuasiUDG:
    def test_chunked_draws_match_one_shot(self):
        points = random_points(41, 260)
        eager, _ = quasi_unit_disk_graph(
            points, 0.08, 0.16, rng=np.random.default_rng(5))
        lazy, _ = quasi_unit_disk_graph(
            points, 0.08, 0.16, rng=np.random.default_rng(5), max_pairs=19)
        assert set(lazy.edges) == set(eager.edges)

    def test_degenerate_gray_zone_streams(self):
        points = random_points(42, 120)
        eager, _ = quasi_unit_disk_graph(points, 0.1, 0.1, rng=1)
        lazy, _ = quasi_unit_disk_graph(points, 0.1, 0.1, rng=1, max_pairs=13)
        assert set(lazy.edges) == set(eager.edges)
        assert set(eager.edges) == {
            tuple(p) for p in pairs_within_range(points, 0.1).tolist()}
