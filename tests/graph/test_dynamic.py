"""Unit tests for the delta-based dynamic topology subsystem."""

import pickle
from fractions import Fraction

import numpy as np
import pytest

from repro.clustering.density import all_densities
import repro.graph.dynamic as dynamic_module
from repro.graph.dynamic import (
    DensityMap,
    DynamicTopology,
    DynamicUnitDisk,
    PositionMap,
    _canonical_id_pairs,
)
from repro.graph.generators import Topology
from repro.graph.geometry import coordinate_columns, pairs_within_range
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError, TopologyError


def edge_set(graph):
    return {frozenset(edge) for edge in graph.edges}


def scratch_edges(positions, radius):
    return {frozenset(pair)
            for pair in pairs_within_range(np.asarray(positions, float),
                                           radius).tolist()}


def disk_edges(disk):
    return {frozenset(pair) for pair in disk.edge_index_pairs().tolist()}


def walk(rng, positions, scale):
    step = rng.uniform(-scale, scale, size=positions.shape)
    return np.clip(positions + step, 0.0, 1.0)


class TestDynamicUnitDisk:
    def test_initial_edges_match_scratch(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0, 1, size=(80, 2))
        disk = DynamicUnitDisk(positions, 0.2)
        assert disk_edges(disk) == scratch_edges(positions, 0.2)

    @pytest.mark.parametrize("scale", [0.005, 0.05, 0.4])
    def test_moves_track_scratch_at_any_step_size(self, scale):
        # Small steps exercise the in-place candidate re-evaluation, large
        # ones the drift-triggered grid re-join; both must stay exact.
        rng = np.random.default_rng(2)
        positions = rng.uniform(0, 1, size=(60, 2))
        disk = DynamicUnitDisk(positions, 0.15)
        for _ in range(12):
            positions = walk(rng, positions, scale)
            disk.move(positions)
            assert disk_edges(disk) == scratch_edges(positions, 0.15)

    def test_move_returns_exact_delta(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 1, size=(50, 2))
        disk = DynamicUnitDisk(positions, 0.2)
        before = disk_edges(disk)
        moved = walk(rng, positions, 0.02)
        delta = disk.move(moved)
        after = disk_edges(disk)
        assert {frozenset(p) for p in delta.added.tolist()} == after - before
        assert {frozenset(p) for p in delta.removed.tolist()} == before - after

    def test_empty_move_is_empty_delta(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0, 1, size=(30, 2))
        disk = DynamicUnitDisk(positions, 0.2)
        delta = disk.move(positions.copy())
        assert not delta
        assert delta.size == 0

    def test_partial_movers_only_touch_their_pairs(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 1, size=(100, 2))
        disk = DynamicUnitDisk(positions, 0.12)
        moved = positions.copy()
        moved[3] = (0.5, 0.5)
        delta = disk.move(moved)
        touched = set(delta.added.flatten().tolist()
                      + delta.removed.flatten().tolist())
        assert touched <= {3} | touched  # delta rows involve node 3
        for pair in np.concatenate((delta.added, delta.removed)).tolist():
            assert 3 in pair
        assert disk_edges(disk) == scratch_edges(moved, 0.12)

    def test_churn_tracks_scratch(self):
        rng = np.random.default_rng(6)
        positions = rng.uniform(0, 1, size=(40, 2))
        disk = DynamicUnitDisk(positions, 0.25)
        delta = disk.apply_churn(departed=[0, 7],
                                 arrivals=[(40, (0.5, 0.5)),
                                           (41, (0.51, 0.5))])
        kept = [i for i in range(40) if i not in (0, 7)]
        expect_pos = np.concatenate((positions[kept],
                                     [[0.5, 0.5], [0.51, 0.5]]))
        expect_ids = kept + [40, 41]
        expected = {frozenset((expect_ids[i], expect_ids[j]))
                    for i, j in pairs_within_range(expect_pos, 0.25).tolist()}
        got = {frozenset((disk.ids[i], disk.ids[j]))
               for i, j in disk.edge_index_pairs().tolist()}
        assert got == expected
        assert frozenset((40, 41)) in {frozenset(p)
                                       for p in delta.added.tolist()}
        assert disk.ids == expect_ids

    @pytest.mark.parametrize("scale", [0.002, 0.02])
    def test_all_movers_path_equals_the_masked_path(self, scale):
        """Every row moved: the direct classification of all candidate
        pairs leaves the same mask and flips the same pairs as the mover
        mask path.  Listing each row twice selects every candidate pair
        through the mask, since the direct path needs ``moved`` to hold
        exactly ``n`` distinct rows.  No node drifts past ``skin / 2``
        (0.0375 here), so the candidate list still covers every edge."""
        rng = np.random.default_rng(21)
        positions = rng.uniform(0, 1, size=(90, 2))
        direct = DynamicUnitDisk(positions, 0.15)
        masked = DynamicUnitDisk(positions, 0.15)
        moved = walk(rng, positions, scale)
        for disk in (direct, masked):
            disk._x, disk._y = coordinate_columns(moved)
        rows = np.arange(90)
        got = direct._reclassify(rows, direct._ci, direct._cj, direct._mask)
        want = masked._reclassify(np.concatenate((rows, rows)), masked._ci,
                                  masked._cj, masked._mask)
        assert np.array_equal(direct._mask, masked._mask)
        for got_pairs, want_pairs in zip(got, want):
            for got_rows, want_rows in zip(got_pairs, want_pairs):
                assert np.array_equal(got_rows, want_rows)
        assert sum(len(pairs[0]) for pairs in got) > 0
        assert disk_edges(direct) == scratch_edges(moved, 0.15)

    def test_churn_validation(self):
        disk = DynamicUnitDisk([(0.1, 0.1), (0.2, 0.2)], 0.3)
        with pytest.raises(ConfigurationError):
            disk.apply_churn(departed=[9])
        with pytest.raises(ConfigurationError):
            disk.apply_churn(arrivals=[(1, (0.5, 0.5))])

    def test_move_rejects_changed_population(self):
        disk = DynamicUnitDisk([(0.1, 0.1), (0.2, 0.2)], 0.3)
        with pytest.raises(ConfigurationError):
            disk.move(np.zeros((3, 2)))

    def test_identifier_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicUnitDisk([(0, 0), (1, 1)], 0.1, ids=[1, 1])
        with pytest.raises(ConfigurationError):
            DynamicUnitDisk([(0, 0), (1, 1)], 0.1, ids=[-1, 2])
        with pytest.raises(ConfigurationError):
            DynamicUnitDisk([(0, 0)], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_are_rejected(self, bad):
        points = [(0.1, 0.1), (0.2, 0.2)]
        with pytest.raises(ConfigurationError, match="finite"):
            DynamicUnitDisk([(0.1, bad), (0.2, 0.2)], 0.3)
        with pytest.raises(ConfigurationError, match="finite"):
            DynamicUnitDisk(points, bad)
        with pytest.raises(ConfigurationError, match="finite"):
            DynamicUnitDisk(points, 0.3, skin=bad)
        disk = DynamicUnitDisk(points, 0.3)
        with pytest.raises(ConfigurationError, match="finite"):
            disk.move(np.array([(0.1, 0.1), (bad, 0.2)]))
        with pytest.raises(ConfigurationError, match="finite"):
            disk.apply_churn(arrivals=[(5, (bad, 0.5))])
        # A refused update leaves the disk as it was.
        assert disk.ids == [0, 1] and disk.edge_count() == 1
        assert disk.move(np.array(points)).size == 0

    def test_tiny_populations(self):
        assert DynamicUnitDisk(np.empty((0, 2)), 0.1).edge_count() == 0
        one = DynamicUnitDisk([(0.5, 0.5)], 0.1)
        assert one.edge_count() == 0
        assert not one.move(np.array([[0.6, 0.6]]))


def test_canonical_id_pairs_equal_the_lexsort():
    rng = np.random.default_rng(14)
    for _ in range(20):
        ids = rng.choice(2 ** 31, size=40, replace=False).astype(np.int64)
        pairs = rng.integers(40, size=(60, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        keys = np.unique(np.sort(pairs, axis=1) @ np.array([40, 1]))
        pairs = np.column_stack((keys // 40, keys % 40))
        pairs = pairs[rng.permutation(len(pairs))]
        lo = np.minimum(ids[pairs[:, 0]], ids[pairs[:, 1]])
        hi = np.maximum(ids[pairs[:, 0]], ids[pairs[:, 1]])
        order = np.lexsort((hi, lo))
        expected = np.column_stack((lo[order], hi[order]))
        assert np.array_equal(
            _canonical_id_pairs(ids, pairs[:, 0], pairs[:, 1]), expected)


class TestGraphEdgeDelta:
    """Rebasing a graph onto the snapshot that follows an edge delta."""

    def build(self):
        return Graph(nodes=range(5), edges=[(0, 1), (1, 2), (2, 3)])

    def test_adopt_csr_shape_guard(self):
        graph = self.build()
        other = Graph(nodes=range(3), edges=[(0, 1)])
        with pytest.raises(TopologyError):
            graph.adopt_csr(other.to_csr())
        after = Graph(nodes=range(5), edges=[(0, 1), (2, 3), (3, 4), (0, 2)])
        with pytest.raises(TopologyError):
            graph.adopt_csr(after.to_csr())  # edge count moved by +1
        with pytest.raises(TopologyError):
            graph.adopt_csr(after.to_csr(), added=2)  # removal undeclared
        graph.adopt_csr(after.to_csr(), added=2, removed=1)
        assert edge_set(graph) == edge_set(after)
        churned = Graph(nodes=[1, 2, 3, 4, 5, 6], edges=[(1, 2), (2, 3)])
        graph = self.build()
        with pytest.raises(TopologyError):
            graph.adopt_csr(churned.to_csr(), removed=1)
        graph.adopt_csr(churned.to_csr(), removed=1, joined=2, left=1)
        assert graph.nodes == [1, 2, 3, 4, 5, 6]

    def test_rebase_drops_the_dict_and_rebuilds_it_in_build_order(self):
        rng = np.random.default_rng(13)
        positions = rng.uniform(0, 1, size=(120, 2))
        pairs = pairs_within_range(positions, 0.2)
        fresh = Graph.from_pair_array(pairs, 120)
        graph = Graph(nodes=range(120), edges=[(0, 1)])
        graph.adopt_csr(fresh.to_csr(), added=len(pairs) - 1)
        assert graph.to_csr() is fresh.to_csr()
        # CSR-only queries, then the lazy dict: same order as the build.
        for node in range(120):
            assert list(graph.neighbors(node)) == list(fresh.neighbors(node))
        assert graph.edges == fresh.edges
        for node in range(120):
            assert list(graph.neighbors(node)) == list(fresh.neighbors(node))


class TestDynamicTopology:
    def assert_matches_scratch(self, dynamic):
        positions = np.array([dynamic.topology.positions[node]
                              for node in dynamic.graph.nodes])
        scratch = scratch_edges(positions, dynamic.radius)
        ids = dynamic.graph.nodes
        got = {frozenset((ids[i], ids[j])) for i, j in
               dynamic._disk.edge_index_pairs().tolist()}
        assert edge_set(dynamic.graph) == got
        assert dynamic.densities == all_densities(dynamic.graph, exact=True)
        assert all(isinstance(value, Fraction)
                   for value in dynamic.densities.values())
        assert np.array_equal(dynamic.triangles,
                              dynamic.graph.to_csr().triangle_counts())

    def test_moves_maintain_graph_and_densities(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 1, size=(70, 2))
        dynamic = DynamicTopology(positions, 0.15)
        for _ in range(8):
            positions = walk(rng, positions, 0.02)
            update = dynamic.move(positions)
            assert update.topology.graph is dynamic.graph
            self.assert_matches_scratch(dynamic)

    def test_bulk_delta_replaces_every_edge(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 1, size=(50, 2))
        dynamic = DynamicTopology(positions, 0.2)
        positions = rng.uniform(0, 1, size=(50, 2))  # teleport all nodes
        dynamic.move(positions)
        self.assert_matches_scratch(dynamic)

    def test_density_changed_is_conservative_superset(self):
        rng = np.random.default_rng(10)
        positions = rng.uniform(0, 1, size=(60, 2))
        dynamic = DynamicTopology(positions, 0.18)
        before = dict(dynamic.densities)
        update = dynamic.move(walk(rng, positions, 0.01))
        changed = {node for node in dynamic.graph
                   if dynamic.densities[node] != before[node]}
        assert changed <= update.density_changed

    def test_heavy_churn_replaces_most_nodes(self):
        rng = np.random.default_rng(12)
        positions = rng.uniform(0, 1, size=(20, 2))
        dynamic = DynamicTopology(positions, 0.3)
        dynamic.apply_churn(
            departed=list(range(15)),
            arrivals=[(20 + i, tuple(rng.uniform(0, 1, size=2)))
                      for i in range(12)])
        self.assert_matches_scratch(dynamic)
        assert len(dynamic.triangles) == len(dynamic.graph)

    def test_move_to_a_nan_position_is_rejected(self):
        dynamic = DynamicTopology([(0.1, 0.1), (0.2, 0.2), (0.9, 0.9)], 0.3)
        with pytest.raises(ConfigurationError, match="finite"):
            dynamic.move(np.array([(0.1, 0.1), (np.nan, 0.2), (0.9, 0.9)]))
        self.assert_matches_scratch(dynamic)

    def test_a_move_keeps_its_topology(self, monkeypatch):
        """A move hands back the topology it holds and constructs no
        :class:`Topology`; its positions are the new window's."""
        rng = np.random.default_rng(14)
        positions = rng.uniform(0, 1, size=(40, 2))
        dynamic = DynamicTopology(positions, 0.2)
        topology = dynamic.topology
        built = []
        monkeypatch.setattr(dynamic_module, "Topology",
                            lambda *args, **kwargs: built.append(args))
        for _ in range(3):
            positions = walk(rng, positions, 0.05)
            update = dynamic.move(positions)
            assert update.topology is topology is dynamic.topology
            assert update.topology.graph is dynamic.graph
            assert dict(topology.positions) == dict(
                zip(range(40), map(tuple, positions.tolist())))
        assert not built

    def test_kept_positions_read_their_own_window(self):
        rng = np.random.default_rng(15)
        windows = [rng.uniform(0, 1, size=(30, 2))]
        dynamic = DynamicTopology(windows[0], 0.2)
        kept = [dynamic.topology.positions]
        for _ in range(4):
            windows.append(walk(rng, windows[-1], 0.1))
            kept.append(dynamic.move(windows[-1]).topology.positions)
        for view, window in zip(kept, windows):
            assert [view[node] for node in range(30)] \
                == list(map(tuple, window.tolist()))

    def test_churn_builds_a_new_validated_topology(self, monkeypatch):
        rng = np.random.default_rng(16)
        dynamic = DynamicTopology(rng.uniform(0, 1, size=(25, 2)), 0.25)
        before = dynamic.topology
        validated = []
        validate = Topology._validate

        def spy(topology):
            validated.append(topology)
            return validate(topology)

        monkeypatch.setattr(Topology, "_validate", spy)
        update = dynamic.apply_churn(departed=[3, 8],
                                     arrivals=[(25, (0.5, 0.5))])
        assert update.topology is dynamic.topology
        assert update.topology is not before and validated == [update.topology]
        assert set(update.topology.ids) == set(dynamic.graph.nodes)
        assert set(update.topology.positions) == set(dynamic.graph.nodes)
        assert update.topology.positions[25] == (0.5, 0.5)
        assert 3 in before.positions and 3 not in update.topology.positions

    def test_churn_maintains_everything(self):
        rng = np.random.default_rng(11)
        positions = rng.uniform(0, 1, size=(30, 2))
        dynamic = DynamicTopology(positions, 0.25)
        update = dynamic.apply_churn(
            departed=[2, 17], arrivals=[(30, (0.4, 0.4)), (31, (0.9, 0.1))])
        assert 2 not in dynamic.graph and 30 in dynamic.graph
        assert set(update.topology.graph.nodes) == set(dynamic.densities)
        self.assert_matches_scratch(dynamic)
        # Node order stays ascending (the simulators' determinism rides it).
        assert dynamic.graph.nodes == sorted(dynamic.graph.nodes)


class TestPositionMap:
    def window(self):
        x = np.array([0.25, -0.0, 1.0])
        y = np.array([0.5, 0.125, 0.0])
        return PositionMap([7, 2, 4], x, y), {7: (0.25, 0.5),
                                              2: (-0.0, 0.125),
                                              4: (1.0, 0.0)}

    def test_lookups_equality_and_iteration(self):
        positions, expected = self.window()
        assert positions == expected and expected == positions
        assert list(positions) == [7, 2, 4] and len(positions) == 3
        assert all(type(value) is float
                   for point in positions.values() for value in point)
        assert str(positions[2][0]) == "-0.0"
        with pytest.raises(KeyError):
            positions[3]
        assert positions != {7: (0.25, 0.5)}

    def test_pickling_and_read_only(self):
        positions, expected = self.window()
        clone = pickle.loads(pickle.dumps(positions))
        assert isinstance(clone, PositionMap) and clone == expected
        with pytest.raises(TypeError):
            positions[7] = (0.0, 0.0)


class TestDensityMap:
    def window(self):
        graph = Graph(nodes=[5, 3, 9, 4], edges=[(5, 3), (3, 9), (9, 5)])
        csr = graph.to_csr()
        return graph, DensityMap(csr.ids, csr.degrees(), csr.triangle_counts())

    def test_lookups_build_exact_fractions(self):
        _graph, densities = self.window()
        assert densities[5] == Fraction(3, 2)
        assert densities[4] == Fraction(0)  # isolated
        assert isinstance(densities[4], Fraction)
        with pytest.raises(KeyError):
            densities[7]
        assert 9 in densities and 7 not in densities

    def test_equality_iteration_and_pickling(self):
        graph, densities = self.window()
        expected = all_densities(graph, exact=True)
        assert densities == expected and expected == densities
        assert list(densities) == list(expected) == [5, 3, 9, 4]
        assert len(densities) == 4
        clone = pickle.loads(pickle.dumps(densities))
        assert isinstance(clone, DensityMap) and clone == expected
        assert densities != {5: Fraction(3, 2)}

    def test_float_image_is_float_of_every_fraction(self):
        _graph, densities = self.window()
        image = densities.float_image
        assert image.tolist() == [float(densities[node]) for node in densities]
        assert not image.flags.writeable

    def test_mapping_is_read_only(self):
        _graph, densities = self.window()
        with pytest.raises(TypeError):
            densities[5] = Fraction(1)
