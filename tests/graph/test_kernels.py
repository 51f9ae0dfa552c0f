"""The traversal kernels against each other and a plain-Python BFS.

``expand_distances`` looped one wave at a time must end in the one-shot
``multi_source_distances``, level by level; the small-graph Python BFS of
``bfs_parents`` must equal its vectorized path bit for bit; and
distances on duplicate-heavy frontiers must equal a plain-Python BFS.
Graphs are random (frequently disconnected, with single-node and
isolated-node cases), seeded UDG deployments, and complete, star and
grid topologies.
"""

import json
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.generators import (
    complete_topology,
    grid_topology,
    line_topology,
    star_topology,
    uniform_topology,
)

from tests.property.strategies import graphs


def _arrays(graph):
    csr = graph.to_csr()
    return csr.indptr, csr.indices


def _random_labels(n, seed):
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return np.random.default_rng(seed).integers(0, 3, size=n)


def assert_waves_match(indptr, indices, sources, labels=None):
    """``expand_distances`` looped one wave at a time ends in the
    one-shot ``multi_source_distances``.

    After every wave the reached rows carry their final distances and
    are exactly the rows at or below the wave's level, the returned
    frontier is exactly the rows at that level, and the loop ends on the
    first empty wave.
    """
    oneshot = kernels.multi_source_distances(
        indptr, indices, sources, labels=labels)
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    frontier = np.unique(sources)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        frontier, level = kernels.expand_distances(
            indptr, indices, dist, frontier, level, labels=labels)
        reached = dist >= 0
        np.testing.assert_array_equal(dist[reached], oneshot[reached])
        np.testing.assert_array_equal(
            reached, (oneshot >= 0) & (oneshot <= level))
        np.testing.assert_array_equal(
            np.sort(frontier), np.flatnonzero(oneshot == level))
    assert level == oneshot.max() + 1
    np.testing.assert_array_equal(dist, oneshot)


def _wave_cases(graph, data):
    """``(indptr, indices, sources, labels)`` drawn for ``graph``."""
    indptr, indices = _arrays(graph)
    n = len(indptr) - 1
    rows = st.integers(0, n - 1)
    sources = np.array(data.draw(st.lists(rows, min_size=1, max_size=3)),
                       dtype=np.int64)
    labels = data.draw(st.sampled_from([None, _random_labels(n, seed=n)]))
    return indptr, indices, sources, labels


class TestResumedSweeps:
    """``expand_distances`` grows one level per call, and a sweep
    resumed wave by wave from the sources equals one-shot
    ``multi_source_distances``."""

    @settings(max_examples=60, deadline=None)
    @given(graph=graphs(), data=st.data())
    def test_resumed_equals_oneshot(self, graph, data):
        assert_waves_match(*_wave_cases(graph, data))

    def test_udg_deployment(self):
        indptr, indices = _arrays(uniform_topology(300, 0.1, rng=4).graph)
        assert_waves_match(indptr, indices, np.array([7]))
        assert_waves_match(indptr, indices, np.array([7, 150]),
                           labels=_random_labels(300, seed=4))

    def test_exhausted_frontier_is_a_no_op(self):
        indptr, indices = _arrays(line_topology(3).graph)
        dist = np.array([0, 1, 2], dtype=np.int64)
        frontier, level = kernels.expand_distances(
            indptr, indices, dist, np.array([2]), 2)
        assert frontier.size == 0 and level == 3
        assert dist.tolist() == [0, 1, 2]
        frontier, level = kernels.expand_distances(
            indptr, indices, dist, frontier, level)
        assert frontier.size == 0
        assert dist.tolist() == [0, 1, 2]


class TestNumpySmallPathParity:
    """``bfs_parents``' small-graph Python BFS equals its vectorized
    numpy path bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs())
    def test_bfs_parents_paths_agree(self, graph):
        indptr, indices = _arrays(graph)
        n = len(indptr) - 1
        labels = _random_labels(n, seed=n)
        assert n <= kernels.SMALL_GRAPH_ROWS  # small path active
        threshold = kernels.SMALL_GRAPH_ROWS
        for lab in (None, labels):
            small = [kernels.bfs_parents(indptr, indices, s, labels=lab)
                     for s in range(n)]
            try:
                kernels.SMALL_GRAPH_ROWS = 0
                big = [kernels.bfs_parents(indptr, indices, s, labels=lab)
                       for s in range(n)]
            finally:
                kernels.SMALL_GRAPH_ROWS = threshold
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
        got = kernels.multi_source_distances(indptr, indices, sources,
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


class TestBenchmarkHooks:
    """The two calls ``perfbench`` makes into the kernels: its harness
    writes ``backend_info()`` into every run record as JSON, and the
    ``pipeline`` workload calls ``warm_up()`` before its set-up."""

    def test_backend_info_is_json_with_active_key(self):
        info = kernels.backend_info()
        assert json.loads(json.dumps(info)) == info
        assert info["active"] == "numpy"

    def test_warm_up_returns_none(self):
        assert kernels.warm_up() is None
