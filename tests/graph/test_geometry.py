"""Tests for unit-disk construction, including brute-force equivalence."""

import numpy as np
import pytest

import repro.graph.geometry as geometry
from repro.graph.geometry import (
    _sorted_rows,
    chunk_pairs,
    pair_columns,
    pairs_within_range,
    subset_pair_columns,
    unit_disk_graph,
)
from repro.util.errors import ConfigurationError
from tests.oracles.graph import assert_symmetric


def brute_force_pairs(positions, radius):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(positions[i] - positions[j])) <= radius:
                pairs.add((i, j))
    return pairs


def pair_set(positions, radius):
    """:func:`pairs_within_range` rows as a set of ``(i, j)`` tuples."""
    return set(map(tuple, pairs_within_range(positions, radius).tolist()))


class TestPairwiseWithinRange:
    """The pair search against brute force, boundaries and bad input."""

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            points = rng.uniform(0, 1, size=(120, 2))
            radius = float(rng.uniform(0.05, 0.3))
            fast = pair_set(points, radius)
            assert fast == brute_force_pairs(points, radius)

    def test_exact_boundary_distance_included(self):
        points = [(0.0, 0.0), (0.1, 0.0)]
        assert pair_set(points, 0.1) == {(0, 1)}

    def test_just_outside_excluded(self):
        points = [(0.0, 0.0), (0.1000001, 0.0)]
        assert pair_set(points, 0.1) == set()

    def test_coincident_points_are_linked(self):
        points = [(0.5, 0.5), (0.5, 0.5)]
        assert pair_set(points, 0.01) == {(0, 1)}

    def test_empty_input(self):
        assert pair_set(np.empty((0, 2)), 0.1) == set()

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            pairs_within_range(np.zeros((3, 3)), 0.1)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigurationError):
            pairs_within_range(np.zeros((2, 2)), 0.0)

    def test_points_spanning_many_cells(self):
        # Distances straddling cell borders must not be missed.
        points = [(x * 0.09999, 0.0) for x in range(12)]
        fast = pair_set(points, 0.1)
        assert fast == brute_force_pairs(points, 0.1)

    def test_property_random_sets_match_brute_force(self):
        # Property-style sweep: many sizes and radii, including radii
        # large enough for a single cell and small enough for hundreds.
        rng = np.random.default_rng(42)
        for n in (1, 2, 7, 40, 150):
            for radius in (0.01, 0.07, 0.25, 0.9, 2.0):
                points = rng.uniform(0, 1, size=(n, 2))
                fast = pair_set(points, radius)
                assert fast == brute_force_pairs(points, radius), \
                    (n, radius)

    def test_property_exact_boundary_distances(self):
        # A lattice with spacing exactly equal to the radius: every
        # orthogonal neighbor pair sits at distance == radius and must be
        # included (<=, not <), in every direction.
        radius = 0.125
        points = [(col * radius, row * radius)
                  for row in range(5) for col in range(5)]
        fast = pair_set(points, radius)
        expected = brute_force_pairs(points, radius)
        assert fast == expected
        # Sanity: the boundary pairs really are there (4-neighborhood).
        assert (0, 1) in fast and (0, 5) in fast and (0, 6) not in fast

    def test_property_negative_and_offset_coordinates(self):
        # Cell binning must not assume the unit square.
        rng = np.random.default_rng(3)
        points = rng.uniform(-5.0, 5.0, size=(80, 2))
        fast = pair_set(points, 0.8)
        assert fast == brute_force_pairs(points, 0.8)

    def test_many_coincident_points(self):
        points = [(0.3, 0.3)] * 6 + [(0.9, 0.9)]
        fast = pair_set(points, 0.05)
        assert fast == {(i, j) for i in range(6) for j in range(i + 1, 6)}


class TestPairsWithinRangeArray:
    def test_returns_sorted_int_array(self):
        rng = np.random.default_rng(8)
        points = rng.uniform(0, 1, size=(60, 2))
        pairs = pairs_within_range(points, 0.2)
        assert pairs.dtype == np.int64
        assert pairs.ndim == 2 and pairs.shape[1] == 2
        assert (pairs[:, 0] < pairs[:, 1]).all()
        # Lexicographic order makes the output deterministic.
        keys = list(map(tuple, pairs.tolist()))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)  # no duplicates

    def test_empty_cases(self):
        assert pairs_within_range(np.empty((0, 2)), 0.1).shape == (0, 2)
        assert pairs_within_range([(0.5, 0.5)], 0.1).shape == (0, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_row_order_equals_lexsort_with_coincident_points(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 1, size=(150, 2))
        # Coincident points share cells and distances: ties everywhere.
        points[rng.integers(150, size=40)] = points[rng.integers(150, size=40)]
        radius = float(rng.choice([0.05, 0.1, 0.2]))
        expected = np.array(sorted(brute_force_pairs(points, radius)),
                            dtype=np.int64).reshape(-1, 2)
        shuffled = expected[rng.permutation(len(expected))]
        lexsorted = shuffled[np.lexsort((shuffled[:, 1], shuffled[:, 0]))]
        keys = shuffled[:, 0] * len(points) + shuffled[:, 1]
        assert np.array_equal(_sorted_rows(keys, len(points)), lexsorted)
        assert np.array_equal(pairs_within_range(points, radius), lexsorted)
        streamed = np.concatenate(
            list(chunk_pairs(points, radius, max_pairs=97))
            or [np.empty((0, 2), dtype=np.int64)])
        assert np.array_equal(streamed, lexsorted)


class TestUnitDiskGraph:
    def test_builds_expected_edges(self):
        points = [(0.0, 0.0), (0.05, 0.0), (0.5, 0.5)]
        graph, positions = unit_disk_graph(points, 0.1)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)
        assert positions[1] == (0.05, 0.0)

    def test_custom_node_ids(self):
        points = [(0.0, 0.0), (0.05, 0.0)]
        graph, positions = unit_disk_graph(points, 0.1, node_ids=["x", "y"])
        assert graph.has_edge("x", "y")
        assert set(positions) == {"x", "y"}

    def test_node_id_count_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            unit_disk_graph([(0, 0)], 0.1, node_ids=["a", "b"])

    def test_duplicate_node_ids_raise(self):
        with pytest.raises(ConfigurationError):
            unit_disk_graph([(0, 0), (1, 1)], 0.1, node_ids=["a", "a"])

    def test_symmetry_invariant_holds(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, size=(80, 2))
        graph, _ = unit_disk_graph(points, 0.2)
        assert_symmetric(graph)


def exact_pairs(points, radius):
    """Brute force in the joins' own arithmetic (``dx*dx + dy*dy <=
    r*r`` on Python floats), exact on boundary pairs too."""
    points = np.asarray(points, dtype=float).tolist()
    r2 = radius * radius
    return {(i, j)
            for i, (xi, yi) in enumerate(points)
            for j, (xj, yj) in enumerate(points[i + 1:], start=i + 1)
            if (xi - xj) * (xi - xj) + (yi - yj) * (yi - yj) <= r2}


class TestSubsetPairColumns:
    """The row-subset join against brute force: each pair with an
    endpoint in the subset, once, in lexicographic order."""

    def check(self, points, radius, rows):
        points = np.asarray(points, dtype=float)
        lo, hi = subset_pair_columns(points[:, 0].copy(),
                                     points[:, 1].copy(),
                                     np.asarray(rows, dtype=np.int64),
                                     radius)
        got = list(zip(lo.tolist(), hi.tolist()))
        members = set(np.asarray(rows).tolist())
        expected = sorted(pair for pair in exact_pairs(points, radius)
                          if members & set(pair))
        assert got == expected  # each pair once, lexicographic
        return got

    @pytest.mark.parametrize("seed", range(4))
    def test_random_subsets(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 1, size=(120, 2))
        radius = float(rng.choice([0.05, 0.15, 0.4]))
        for size in (1, 5, 30, 119):
            rows = np.sort(rng.choice(120, size=size, replace=False))
            self.check(points, radius, rows)

    def test_empty_subset_and_all_rows(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 1, size=(60, 2))
        assert self.check(points, 0.2, []) == []
        everything = self.check(points, 0.2, np.arange(60))
        assert everything == [tuple(p) for p in
                              pairs_within_range(points, 0.2).tolist()]

    def test_pairs_inside_the_subset_are_kept_once(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 1, size=(50, 2))
        points[:8] = 0.5 + rng.uniform(-0.01, 0.01, size=(8, 2))
        got = self.check(points, 0.1, [7, 0, 3, 5, 1])  # any order
        assert (0, 1) in got and (5, 7) in got

    def test_points_on_cell_boundaries(self):
        # A lattice of spacing == radius: every point sits on a cell
        # boundary and orthogonal neighbors at exactly ``radius``.
        radius = 0.125
        points = [(col * radius, row * radius)
                  for row in range(6) for col in range(6)]
        got = self.check(points, radius, [0, 7, 14, 15, 35])
        assert (0, 1) in got and (0, 6) in got and (0, 7) not in got

    def test_pair_columns_equal_the_pair_array(self):
        rng = np.random.default_rng(7)
        points = rng.uniform(0, 1, size=(90, 2))
        lo, hi = pair_columns(points[:, 0].copy(), points[:, 1].copy(), 0.2)
        assert np.array_equal(np.column_stack((lo, hi)),
                              pairs_within_range(points, 0.2))


class TestBlockedJoin:
    """The one-shot join expands its candidates one block of points at a
    time.  Budgets of 1, 7 and 64 candidates cut the cells' runs of
    points across blocks and leave single points whose runs hold more
    candidates than a block; every budget must give the brute-force
    pairs in lexicographic order."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_small_blocks_equal_brute_force(self, monkeypatch, block, seed):
        monkeypatch.setattr(geometry, "_JOIN_BLOCK", block)
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 1, size=(160, 2))
        # Coincident points crowd one cell: runs far longer than a block.
        points[:12] = points[12]
        radius = float(rng.choice([0.05, 0.12, 0.3]))
        expected = sorted(exact_pairs(points, radius))
        pairs = pairs_within_range(points, radius)
        assert list(map(tuple, pairs.tolist())) == expected
        lo, hi = pair_columns(points[:, 0].copy(), points[:, 1].copy(),
                              radius)
        assert list(zip(lo.tolist(), hi.tolist())) == expected

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_small_blocks_on_a_lattice(self, monkeypatch, block):
        monkeypatch.setattr(geometry, "_JOIN_BLOCK", block)
        radius = 0.125
        points = [(col * radius, row * radius)
                  for row in range(7) for col in range(7)]
        expected = sorted(exact_pairs(points, radius))
        assert list(map(tuple, pairs_within_range(points, radius).tolist())) \
            == expected


class TestNonFiniteInputs:
    """NaN and infinite coordinates or radii are configuration errors,
    not silently edgeless nodes."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pairs_within_range_rejects_coordinates(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            pairs_within_range([(0.1, 0.1), (bad, 0.5)], 0.2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pairs_within_range_rejects_radius(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            pairs_within_range([(0.1, 0.1), (0.2, 0.5)], bad)

    def test_chunk_pairs_rejects_eagerly(self):
        with pytest.raises(ConfigurationError, match="finite"):
            chunk_pairs([(0.1, np.nan), (0.2, 0.5)], 0.2)
        with pytest.raises(ConfigurationError, match="finite"):
            chunk_pairs([(0.1, 0.1), (0.2, 0.5)], np.nan)

    def test_unit_disk_graph_rejects(self):
        with pytest.raises(ConfigurationError, match="finite"):
            unit_disk_graph([(0.1, 0.1), (np.inf, 0.5)], 0.2)
        with pytest.raises(ConfigurationError, match="finite"):
            unit_disk_graph([(0.1, 0.1), (0.2, 0.5)], np.inf,
                            max_pairs=10)
