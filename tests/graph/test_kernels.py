"""Kernel backend parity: numpy vs numba, bit for bit.

The ``repro.graph.kernels`` seam promises that switching backends
(``REPRO_KERNELS=numpy|numba``) never changes a single output array --
distances, parents, component labels, forest roots/depths, unwound
paths.  This suite pins that contract property-wise on random
(frequently disconnected) graphs, single-node graphs, and graphs with
isolated nodes, plus seeded UDG deployments.  When numba is not
installed the cross-backend half skips cleanly (the dedicated CI job
installs numba and runs this file under ``REPRO_KERNELS=numba``); the
numpy-internal half (small-graph fast path vs vectorized path) and the
plain-Python BFS oracle on duplicate-heavy frontiers (numpy and the
active backend) always run.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.generators import (
    complete_topology,
    grid_topology,
    star_topology,
    uniform_topology,
)
from repro.graph.kernels import numpy_backend
from repro.util.errors import ConfigurationError

from tests.property.strategies import graphs


def _numba_or_skip():
    try:
        return kernels.get_backend("numba")
    except ImportError:
        pytest.skip("numba backend not installed")


def _arrays(graph):
    csr = graph.to_csr()
    return csr.indptr, csr.indices


def _random_labels(n, seed):
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return np.random.default_rng(seed).integers(0, 3, size=n)


def assert_backends_match(indptr, indices, other):
    """Every kernel, numpy vs ``other``, on one CSR array pair."""
    n = len(indptr) - 1
    labels = _random_labels(n, seed=n * 31 + len(indices))
    for source in range(n):
        sources = np.array([source], dtype=np.int64)
        for lab in (None, labels):
            np.testing.assert_array_equal(
                numpy_backend.multi_source_distances(
                    indptr, indices, sources, labels=lab),
                other.multi_source_distances(
                    indptr, indices, sources, labels=lab))
            ours_p, ours_d = numpy_backend.bfs_parents(
                indptr, indices, source, labels=lab)
            theirs_p, theirs_d = other.bfs_parents(
                indptr, indices, source, labels=lab)
            np.testing.assert_array_equal(ours_p, theirs_p)
            np.testing.assert_array_equal(ours_d, theirs_d)
            for target in range(n):
                np.testing.assert_array_equal(
                    numpy_backend.unwind_path(ours_p, source, target),
                    other.unwind_path(theirs_p, source, target))
    if n:
        many = np.arange(0, n, 2, dtype=np.int64)
        if many.size:
            np.testing.assert_array_equal(
                numpy_backend.multi_source_distances(indptr, indices, many),
                other.multi_source_distances(indptr, indices, many))
    np.testing.assert_array_equal(
        numpy_backend.component_labels(indptr, indices),
        other.component_labels(indptr, indices))


class TestNumbaParity:
    """numpy vs numba bit-identity (skips when numba is absent)."""

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs())
    def test_random_graphs(self, graph):
        """Random graphs: disconnected shapes and isolated nodes included."""
        numba = _numba_or_skip()
        assert_backends_match(*_arrays(graph), numba)

    @pytest.mark.parametrize("seed,count,radius", [
        (21, 40, 0.2), (22, 80, 0.08), (23, 50, 0.02),
    ])
    def test_udg_deployments(self, seed, count, radius):
        numba = _numba_or_skip()
        topo = uniform_topology(count, radius, rng=seed)
        assert_backends_match(*_arrays(topo.graph), numba)

    def test_single_node_graph(self):
        numba = _numba_or_skip()
        indptr = np.array([0, 0], dtype=np.int32)
        indices = np.empty(0, dtype=np.int32)
        assert_backends_match(indptr, indices, numba)

    def test_isolated_nodes_around_an_edge(self):
        numba = _numba_or_skip()
        # rows 0 and 3 isolated, rows 1-2 connected
        indptr = np.array([0, 0, 1, 2, 2], dtype=np.int32)
        indices = np.array([2, 1], dtype=np.int32)
        assert_backends_match(indptr, indices, numba)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_resolve_forest_parity(self, data):
        numba = _numba_or_skip()
        n = data.draw(st.integers(1, 24))
        # parent[i] <= i guarantees a forest (i == parent marks a root)
        parents = np.array(
            [data.draw(st.integers(0, i)) for i in range(n)],
            dtype=np.int64)
        ours = numpy_backend.resolve_forest(parents)
        theirs = numba.resolve_forest(parents)
        assert ours[2] is True and theirs[2] is True
        np.testing.assert_array_equal(ours[0], theirs[0])
        np.testing.assert_array_equal(ours[1], theirs[1])

    def test_resolve_forest_cycle_flagged_by_both(self):
        numba = _numba_or_skip()
        parents = np.array([1, 2, 0, 3], dtype=np.int64)
        assert numpy_backend.resolve_forest(parents)[2] is False
        assert numba.resolve_forest(parents)[2] is False


class TestNumpySmallPathParity:
    """The numpy backend's small-graph Python BFS equals its vectorized
    path bit for bit (always runnable, no numba needed)."""

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs())
    def test_bfs_parents_paths_agree(self, graph):
        indptr, indices = _arrays(graph)
        n = len(indptr) - 1
        labels = _random_labels(n, seed=n)
        assert n <= numpy_backend.SMALL_GRAPH_ROWS  # small path active
        threshold = numpy_backend.SMALL_GRAPH_ROWS
        for lab in (None, labels):
            small = [numpy_backend.bfs_parents(indptr, indices, s, labels=lab)
                     for s in range(n)]
            try:
                numpy_backend.SMALL_GRAPH_ROWS = 0
                big = [numpy_backend.bfs_parents(indptr, indices, s,
                                                 labels=lab)
                       for s in range(n)]
            finally:
                numpy_backend.SMALL_GRAPH_ROWS = threshold
            for (sp, sd), (bp, bd) in zip(small, big):
                np.testing.assert_array_equal(sp, bp)
                np.testing.assert_array_equal(sd, bd)


def _python_distances(indptr, indices, sources, labels=None):
    """Plain-Python multi-source BFS: the distance oracle."""
    ptr, ind = np.asarray(indptr).tolist(), np.asarray(indices).tolist()
    lab = None if labels is None else np.asarray(labels).tolist()
    dist = [-1] * (len(ptr) - 1)
    queue = deque()
    for source in np.asarray(sources).tolist():
        if dist[source] < 0:
            dist[source] = 0
            queue.append(source)
    while queue:
        u = queue.popleft()
        for v in ind[ptr[u]:ptr[u + 1]]:
            if dist[v] < 0 and (lab is None or lab[v] == lab[u]):
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _singleton_labels(n):
    """Three big classes plus every fifth row in a class of its own."""
    labels = np.arange(n, dtype=np.int64) % 3
    labels[::5] = np.arange(0, n, 5) + 3
    return labels


def _duplicate_heavy_cases():
    """``(id, topology, sources)``: in every case some BFS level
    discovers one row from many frontier rows."""
    complete = complete_topology(40)
    star = star_topology(60)
    grid = grid_topology(12, 12, 1.6 / 11)  # 8-neighborhood
    return [
        ("complete-many-sources", complete, [0, 5, 9, 33]),
        ("star-all-leaves", star, list(range(1, 61))),
        ("grid-corner", grid, [0]),
        ("grid-duplicate-sources", grid, [70, 70, 3, 70, 143, 3]),
        ("complete-duplicate-sources", complete, [4, 4, 11, 4]),
    ]


class TestDuplicateHeavyFrontiers:
    """``multi_source_distances`` equals a plain-Python BFS when one
    level discovers the same row many times (the frontier dedup)."""

    @pytest.mark.parametrize(
        "case", _duplicate_heavy_cases(), ids=lambda case: case[0])
    @pytest.mark.parametrize("constrained", [False, True],
                             ids=["free", "singleton-labels"])
    def test_matches_python_bfs(self, case, constrained):
        _name, topology, sources = case
        indptr, indices = _arrays(topology.graph)
        n = len(indptr) - 1
        labels = _singleton_labels(n) if constrained else None
        sources = np.array(sources, dtype=np.int64)
        expected = _python_distances(indptr, indices, sources, labels)
        for backend in (numpy_backend, kernels):
            got = backend.multi_source_distances(indptr, indices, sources,
                                                 labels=labels)
            assert got.tolist() == expected

    def test_cases_really_rediscover_rows(self):
        """Guard on the inputs: in every case some row has several
        neighbors one level closer to the sources, so its level
        discovers it more than once."""
        for name, topology, sources in _duplicate_heavy_cases():
            indptr, indices = _arrays(topology.graph)
            dist = _python_distances(indptr, indices, sources)
            discoverers = [
                sum(dist[u] == dist[v] - 1
                    for u in indices[indptr[v]:indptr[v + 1]])
                for v in range(len(dist)) if dist[v] > 0]
            assert max(discoverers) > 1, name


class TestBackendSelection:
    """The seam's plumbing: selection report and explicit access."""

    def test_backend_info_shape(self):
        info = kernels.backend_info()
        assert info["requested"] in kernels.CHOICES
        assert info["active"] in ("numpy", "numba")
        assert isinstance(info["numba_available"], bool)
        if not info["numba_available"]:
            assert info["active"] == "numpy"

    def test_get_backend_numpy(self):
        assert kernels.get_backend("numpy") is numpy_backend

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            kernels.get_backend("cython")

    def test_active_backend_exports_all_kernels(self):
        for name in kernels.KERNELS:
            assert callable(getattr(kernels, name))

    def test_warm_up_is_safe(self):
        kernels.warm_up()  # no-op on numpy, compiles on numba
