"""Unit tests for the frozen CSRAdjacency snapshot."""

import numpy as np
import pytest

from repro.graph.csr import CSRAdjacency
from repro.graph.generators import complete_topology, star_topology
from repro.graph.graph import Graph
from repro.util.errors import TopologyError


def path_csr(n):
    return Graph(nodes=range(n),
                 edges=[(i, i + 1) for i in range(n - 1)]).to_csr()


class TestFrozenInvariants:
    def test_arrays_are_not_writeable(self):
        csr = path_csr(4)
        with pytest.raises(ValueError):
            csr.indices[0] = 0
        with pytest.raises(ValueError):
            csr.indptr[0] = 1

    def test_attributes_cannot_be_rebound(self):
        csr = path_csr(4)
        with pytest.raises(AttributeError):
            csr.indices = np.array([], dtype=np.int32)

    def test_dtypes_are_int32(self):
        csr = path_csr(4)
        assert csr.indptr.dtype == np.int32
        assert csr.indices.dtype == np.int32

    def test_rows_sorted_ascending(self):
        csr = complete_topology(6).graph.to_csr()
        for i in range(len(csr)):
            row = csr.neighbors_of(i)
            assert list(row) == sorted(row)

    def test_mismatched_indptr_raises(self):
        with pytest.raises(TopologyError):
            CSRAdjacency(np.array([0, 0]), np.array([], dtype=np.int32),
                         ["a", "b"])


class TestQueries:
    def test_id_index_roundtrip(self):
        csr = Graph(edges=[("x", "y"), ("y", "z")]).to_csr()
        for index, node in enumerate(csr.ids):
            assert csr.index_of[node] == index

    def test_degrees_and_edge_count(self):
        csr = star_topology(5).graph.to_csr()
        degrees = csr.degrees()
        assert degrees[csr.index_of[0]] == 5
        assert csr.edge_count() == 5

    def test_edge_arrays_cover_each_edge_once(self):
        graph = complete_topology(5).graph
        eu, ev = graph.to_csr().edge_arrays()
        assert len(eu) == graph.edge_count()
        assert (eu < ev).all()

    def test_has_edge_missing(self):
        csr = path_csr(3)
        assert csr.has_edge(0, 1)
        assert not csr.has_edge(0, 2)


class TestTriangleCounts:
    def test_triangle_graph(self):
        csr = Graph(edges=[(0, 1), (1, 2), (2, 0)]).to_csr()
        assert list(csr.triangle_counts()) == [1, 1, 1]

    def test_complete_graph(self):
        n = 7
        csr = complete_topology(n).graph.to_csr()
        expected = (n - 1) * (n - 2) // 2
        assert all(csr.triangle_counts() == expected)

    def test_triangle_free_graph(self):
        csr = star_topology(6).graph.to_csr()
        assert not csr.triangle_counts().any()

    def test_counts_are_memoized(self):
        csr = complete_topology(5).graph.to_csr()
        assert csr.triangle_counts() is csr.triangle_counts()

    def test_chunked_path_matches_unchunked(self, monkeypatch):
        import repro.graph.csr as csrmod

        csr = complete_topology(12).graph.to_csr()
        baseline = csr.triangle_counts()
        monkeypatch.setattr(csrmod, "_TRIANGLE_CHUNK", 7)
        fresh = CSRAdjacency(csr.indptr, csr.indices, csr.ids)
        assert (fresh.triangle_counts() == baseline).all()

    def test_temporaries_stay_within_the_two_budgets(self, monkeypatch):
        # K_300 expands ~4.5M candidates and closes ~4.5M triangles.  A
        # peak above O(edges) index columns plus one chunk of candidate
        # temporaries plus the n x n mark matrix means a temporary
        # outgrew a budget: an uncapped block (8 MiB of marks), an
        # unchunked expansion, or hits gathered over the whole graph.
        import tracemalloc

        import repro.graph.csr as csrmod

        n, chunk = 300, 20_000
        monkeypatch.setattr(csrmod, "_TRIANGLE_CHUNK", chunk)
        lo, hi = np.triu_indices(n, 1)
        csr = CSRAdjacency.from_pairs(lo, hi, range(n))
        tracemalloc.start()
        try:
            counts = csr.triangle_counts()
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (counts == (n - 1) * (n - 2) // 2).all()
        assert peak <= 48 * len(csr.indices) + 64 * chunk + n * n

    def test_two_triangles_sharing_an_edge(self):
        # 0-1 shared by triangles {0,1,2} and {0,1,3}.
        csr = Graph(edges=[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]).to_csr()
        counts = {node: int(csr.triangle_counts()[csr.index_of[node]])
                  for node in (0, 1, 2, 3)}
        assert counts == {0: 2, 1: 2, 2: 1, 3: 1}


class TestConstructors:
    def test_from_dict_matches_from_pairs(self):
        lo = np.array([0, 0, 1], dtype=np.int64)
        hi = np.array([1, 2, 2], dtype=np.int64)
        via_pairs = CSRAdjacency.from_pairs(lo, hi, ["a", "b", "c"])
        via_dict = Graph(nodes=["a", "b", "c"],
                         edges=[("a", "b"), ("a", "c"), ("b", "c")]).to_csr()
        assert (via_pairs.indptr == via_dict.indptr).all()
        assert (via_pairs.indices == via_dict.indices).all()
        assert via_pairs.ids == via_dict.ids

    def test_empty(self):
        csr = CSRAdjacency.from_pairs(np.empty(0, dtype=np.int64),
                                      np.empty(0, dtype=np.int64), [])
        assert len(csr) == 0
        assert csr.edge_count() == 0
        assert list(csr.triangle_counts()) == []
