"""Unit tests for the CSR traversal kernel."""

import numpy as np
import pytest

from repro.graph import kernels
from repro.graph.graph import Graph
from repro.graph.traversal import (
    DistanceSweep,
    csr_bfs_distances,
    csr_bfs_parents,
    csr_component_labels,
    csr_multi_source_distances,
    csr_shortest_path,
    resolve_forest,
)
from repro.util.errors import TopologyError


def rows(graph):
    return graph.to_csr()


class TestBfsDistances:
    def test_path_graph(self):
        csr = rows(Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)]))
        assert csr_bfs_distances(csr, 0).tolist() == [0, 1, 2, 3, 4]
        assert csr_bfs_distances(csr, 2).tolist() == [2, 1, 0, 1, 2]

    def test_unreachable_marked_minus_one(self):
        csr = rows(Graph(nodes=[0, 1, 2], edges=[(0, 1)]))
        assert csr_bfs_distances(csr, 0).tolist() == [0, 1, -1]

    def test_single_node(self):
        csr = rows(Graph(nodes=[7]))
        assert csr_bfs_distances(csr, 0).tolist() == [0]

    def test_out_of_range_source_raises(self):
        csr = rows(Graph(nodes=[0]))
        with pytest.raises(TopologyError):
            csr_bfs_distances(csr, 5)


class TestDistanceSweep:
    def test_lookups_equal_full_bfs(self):
        csr = rows(Graph(nodes=range(8), edges=[(i, i + 1) for i in range(5)]))
        full = csr_bfs_distances(csr, 2)
        sweep = DistanceSweep(csr, 2)
        for row in (7, 0, 5, 2, 6, 3, 1, 4):
            assert sweep.distance(row) == full[row]
            reached = sweep.dist >= 0
            np.testing.assert_array_equal(sweep.dist[reached], full[reached])
            # Whole levels only: every row up to the deepest is reached.
            assert (reached == ((full >= 0)
                                & (full <= sweep.dist.max()))).all()

    def test_sweep_stops_at_the_asked_level(self):
        # On a path both frontiers hold one row, and ties grow the
        # cached sweep, so it stops at exactly the level asked for.
        csr = rows(Graph(nodes=range(6), edges=[(i, i + 1) for i in range(5)]))
        sweep = DistanceSweep(csr, 0)
        assert sweep.distance(2) == 2
        assert sweep.dist.tolist() == [0, 1, 2, -1, -1, -1]
        assert sweep.distance(1) == 1  # already reached: no expansion
        assert sweep.dist.tolist() == [0, 1, 2, -1, -1, -1]
        assert sweep.distance(4) == 4
        assert sweep.dist.tolist() == [0, 1, 2, 3, 4, -1]

    def test_lookups_meet_in_the_middle(self):
        # Source 0 fans out to 1, 2, 3 and then 4, 5, 6; row 9 hangs off
        # 4 through 7 and 8.  The throwaway side from 9 has the smaller
        # frontier and grows to 8, then 7; the cached sweep's third level
        # reaches 7, so 3 + 2 hops, and rows 8 and 9 stay unreached.
        csr = rows(Graph(nodes=range(10),
                         edges=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5),
                                (3, 6), (4, 7), (7, 8), (8, 9)]))
        sweep = DistanceSweep(csr, 0)
        assert sweep.distance(9) == 5
        assert sweep.dist.tolist() == [0, 1, 1, 1, 2, 2, 2, 3, -1, -1]
        assert sweep.distance(2) == 1  # already reached: one read
        assert sweep.dist.tolist() == [0, 1, 1, 1, 2, 2, 2, 3, -1, -1]
        assert sweep.distance(8) == 4
        assert sweep.dist.tolist() == [0, 1, 1, 1, 2, 2, 2, 3, 4, -1]

    def test_throwaway_side_never_outgrows_the_sweep(self):
        # Hub 0 reaches four rows at level 1; row 14 ends a path
        # 1-10-11-12-13-14.  The throwaway side from 14 keeps the
        # smaller frontier, but it may grow no deeper than the cached
        # sweep, so the cached sweep walks the path until it meets 13.
        csr = rows(Graph(nodes=[0, 1, 2, 3, 4, 10, 11, 12, 13, 14],
                         edges=[(0, 1), (0, 2), (0, 3), (0, 4), (1, 10),
                                (10, 11), (11, 12), (12, 13), (13, 14)]))
        sweep = DistanceSweep(csr, 0)
        assert sweep.distance(1) == 1
        assert sweep.distance(9) == 6  # row 9 is node 14
        assert sweep.dist.tolist() == [0, 1, 1, 1, 1, 2, 3, 4, 5, -1]

    def test_exhausted_sweep_answers_without_growing(self, monkeypatch):
        # Components {0, 1} and {2, 3, 4}: growing the cached sweep from
        # 0 empties its frontier, after which every lookup of the other
        # component is one read.
        csr = rows(Graph(nodes=range(5), edges=[(0, 1), (2, 3), (3, 4)]))
        sweep = DistanceSweep(csr, 0)
        assert sweep.distance(4) == -1
        assert sweep.distance(1) == 1
        assert sweep.distance(3) == -1
        assert sweep.dist.tolist() == [0, 1, -1, -1, -1]
        waves = []
        monkeypatch.setattr(kernels, "expand_distances",
                            lambda *args, **kwargs: waves.append(args))
        assert [sweep.distance(row) for row in range(5)] == [0, 1, -1, -1, -1]
        assert waves == []

    def test_unreachable_when_the_throwaway_side_empties(self):
        # The lone row 3 empties its own frontier first; the cached
        # sweep keeps what it grew and still answers its component.
        csr = rows(Graph(nodes=range(4), edges=[(0, 1), (0, 2)]))
        sweep = DistanceSweep(csr, 0)
        assert sweep.distance(1) == 1
        assert sweep.distance(3) == -1
        assert sweep.distance(2) == 1

    @pytest.mark.parametrize("row", [-1, -4, 4, 10])
    def test_out_of_range_row_raises(self, row):
        # Negative rows used to wrap around (-1 read the source's 0).
        csr = rows(Graph(nodes=range(4), edges=[(i, i + 1) for i in range(3)]))
        sweep = DistanceSweep(csr, 3)
        with pytest.raises(TopologyError):
            sweep.distance(row)

    def test_out_of_range_source_raises(self):
        with pytest.raises(TopologyError):
            DistanceSweep(rows(Graph(nodes=[0])), 3)


class TestMultiSource:
    def test_two_sources_meet_in_the_middle(self):
        csr = rows(Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)]))
        dist = csr_multi_source_distances(csr, np.array([0, 4]))
        assert dist.tolist() == [0, 1, 2, 1, 0]

    def test_empty_sources(self):
        csr = rows(Graph(nodes=range(3), edges=[(0, 1)]))
        dist = csr_multi_source_distances(csr, np.empty(0, dtype=np.int64))
        assert dist.tolist() == [-1, -1, -1]

    def test_label_constrained_waves_stay_home(self):
        # 0-1-2-3-4 with clusters {0,1,2} and {3,4}: the wave from 0 must
        # not cross the 2-3 edge even though the graph is connected.
        csr = rows(Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)]))
        labels = np.array([0, 0, 0, 3, 3])
        dist = csr_multi_source_distances(csr, np.array([0, 3]),
                                          labels=labels)
        assert dist.tolist() == [0, 1, 2, 0, 1]

    def test_label_constrained_disconnection_detected(self):
        # 0-1-2 with cluster {0, 2}: 2 is unreachable from 0 inside the
        # label region (1 belongs to another cluster).
        csr = rows(Graph(edges=[(0, 1), (1, 2)]))
        labels = np.array([0, 1, 0])
        dist = csr_multi_source_distances(csr, np.array([0, 1]),
                                          labels=labels)
        assert dist.tolist() == [0, 0, -1]


class TestShortestPath:
    def test_trivial_and_line(self):
        csr = rows(Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)]))
        assert csr_shortest_path(csr, 1, 1) == [1]
        assert csr_shortest_path(csr, 0, 4) == [0, 1, 2, 3, 4]

    def test_disconnected_returns_none(self):
        csr = rows(Graph(nodes=[0, 1]))
        assert csr_shortest_path(csr, 0, 1) is None

    def test_out_of_range_raises(self):
        csr = rows(Graph(nodes=[0]))
        with pytest.raises(TopologyError):
            csr_shortest_path(csr, 0, 9)

    def test_path_is_shortest_on_cycle(self):
        edges = [(i, (i + 1) % 6) for i in range(6)]
        csr = rows(Graph(edges=edges))
        path = csr_shortest_path(csr, 0, 3)
        assert len(path) == 4
        assert path[0] == 0 and path[-1] == 3

    def test_label_constraint_blocks_shortcuts(self):
        # Square 0-1-2-3-0 plus chord 0-2; cluster {0, 1, 2} excludes 3,
        # so 0 -> 2 must use the chord or 1, never 3.
        csr = rows(Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        labels = np.array([0, 0, 0, 9])
        path = csr_shortest_path(csr, 0, 2, labels=labels)
        assert 3 not in path
        assert len(path) == 2  # the chord

    def test_label_mismatch_is_unreachable(self):
        csr = rows(Graph(edges=[(0, 1)]))
        assert csr_shortest_path(csr, 0, 1,
                                 labels=np.array([0, 1])) is None


class TestBfsParents:
    @staticmethod
    def unwind(parent, source, target):
        if parent[target] < 0 and target != source:
            return None
        path = [target]
        while path[-1] != source:
            path.append(int(parent[path[-1]]))
        path.reverse()
        return path

    def test_distances_match_bfs(self):
        csr = rows(Graph(nodes=range(5), edges=[(i, i + 1) for i in range(4)]))
        parent, dist = csr_bfs_parents(csr, 2)
        assert dist.tolist() == csr_bfs_distances(csr, 2).tolist()
        assert parent[2] == -1

    def test_unwinding_reproduces_shortest_path(self):
        # Dense-ish random graph: every (source, target) unwind must be
        # byte-identical to the early-exit path search -- the property
        # the serving router's leg cache rests on.
        rng = np.random.default_rng(5)
        n = 24
        graph = Graph(nodes=range(n), edges=[
            (u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < 0.15])
        csr = rows(graph)
        for source in range(0, n, 5):
            parent, _dist = csr_bfs_parents(csr, source)
            for target in range(n):
                expected = csr_shortest_path(csr, source, target)
                assert self.unwind(parent, source, target) == expected

    def test_label_constrained_matches_constrained_search(self):
        csr = rows(Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
        labels = np.array([0, 0, 0, 9])
        parent, dist = csr_bfs_parents(csr, 0, labels=labels)
        assert dist[3] == -1 and parent[3] == -1
        assert self.unwind(parent, 0, 2) == \
            csr_shortest_path(csr, 0, 2, labels=labels)

    def test_unreached_rows_marked(self):
        csr = rows(Graph(nodes=[0, 1, 2], edges=[(0, 1)]))
        parent, dist = csr_bfs_parents(csr, 0)
        assert parent.tolist() == [-1, 0, -1]
        assert dist.tolist() == [0, 1, -1]

    def test_out_of_range_source_raises(self):
        with pytest.raises(TopologyError):
            csr_bfs_parents(rows(Graph(nodes=[0])), 3)


class TestComponents:
    def test_labels_are_component_minima(self):
        graph = Graph(nodes=[9], edges=[(0, 1), (1, 2), (4, 5)])
        # insertion order: 9, 0, 1, 2, 4, 5 -> rows 0..5
        labels = csr_component_labels(graph.to_csr())
        assert labels.tolist() == [0, 1, 1, 1, 4, 4]

    def test_empty_and_isolated(self):
        assert csr_component_labels(Graph().to_csr()).size == 0
        labels = csr_component_labels(Graph(nodes=range(3)).to_csr())
        assert labels.tolist() == [0, 1, 2]

    def test_long_path_single_component(self):
        n = 257
        graph = Graph(nodes=range(n), edges=[(i, i + 1) for i in range(n - 1)])
        labels = csr_component_labels(graph.to_csr())
        assert (labels == 0).all()


class TestResolveForest:
    def test_chain_depths(self):
        roots, depths = resolve_forest(np.array([0, 0, 1, 2]))
        assert roots.tolist() == [0, 0, 0, 0]
        assert depths.tolist() == [0, 1, 2, 3]

    def test_forest_of_singletons(self):
        roots, depths = resolve_forest(np.arange(4))
        assert roots.tolist() == [0, 1, 2, 3]
        assert depths.tolist() == [0, 0, 0, 0]

    def test_two_trees(self):
        roots, depths = resolve_forest(np.array([0, 0, 3, 3, 2]))
        assert roots.tolist() == [0, 0, 3, 3, 3]
        assert depths.tolist() == [0, 1, 1, 0, 2]

    def test_empty(self):
        roots, depths = resolve_forest(np.empty(0, dtype=np.int64))
        assert roots.size == 0 and depths.size == 0

    def test_cycle_raises(self):
        with pytest.raises(TopologyError):
            resolve_forest(np.array([1, 0]))
        with pytest.raises(TopologyError):
            resolve_forest(np.array([1, 2, 0, 3]))

    def test_out_of_range_raises(self):
        with pytest.raises(TopologyError):
            resolve_forest(np.array([5]))

    def test_deep_chain(self):
        n = 300
        parent = np.maximum(np.arange(n) - 1, 0)
        roots, depths = resolve_forest(parent)
        assert (roots == 0).all()
        assert depths.tolist() == list(range(n))
