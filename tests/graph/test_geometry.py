"""Tests for unit-disk construction, including brute-force equivalence."""

import numpy as np
import pytest

from repro.graph.geometry import (
    _sorted_rows,
    chunk_pairs,
    pairs_within_range,
    pairwise_within_range,
    unit_disk_graph,
)
from repro.util.errors import ConfigurationError


def brute_force_pairs(positions, radius):
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if np.hypot(*(positions[i] - positions[j])) <= radius:
                pairs.add((i, j))
    return pairs


class TestPairwiseWithinRange:
    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            points = rng.uniform(0, 1, size=(120, 2))
            radius = float(rng.uniform(0.05, 0.3))
            fast = set(pairwise_within_range(points, radius))
            assert fast == brute_force_pairs(points, radius)

    def test_exact_boundary_distance_included(self):
        points = [(0.0, 0.0), (0.1, 0.0)]
        assert set(pairwise_within_range(points, 0.1)) == {(0, 1)}

    def test_just_outside_excluded(self):
        points = [(0.0, 0.0), (0.1000001, 0.0)]
        assert set(pairwise_within_range(points, 0.1)) == set()

    def test_coincident_points_are_linked(self):
        points = [(0.5, 0.5), (0.5, 0.5)]
        assert set(pairwise_within_range(points, 0.01)) == {(0, 1)}

    def test_empty_input(self):
        assert set(pairwise_within_range(np.empty((0, 2)), 0.1)) == set()

    def test_rejects_bad_shape(self):
        with pytest.raises(ConfigurationError):
            list(pairwise_within_range(np.zeros((3, 3)), 0.1))

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigurationError):
            list(pairwise_within_range(np.zeros((2, 2)), 0.0))

    def test_points_spanning_many_cells(self):
        # Distances straddling cell borders must not be missed.
        points = [(x * 0.09999, 0.0) for x in range(12)]
        fast = set(pairwise_within_range(points, 0.1))
        assert fast == brute_force_pairs(points, 0.1)

    def test_property_random_sets_match_brute_force(self):
        # Property-style sweep: many sizes and radii, including radii
        # large enough for a single cell and small enough for hundreds.
        rng = np.random.default_rng(42)
        for n in (1, 2, 7, 40, 150):
            for radius in (0.01, 0.07, 0.25, 0.9, 2.0):
                points = rng.uniform(0, 1, size=(n, 2))
                fast = set(pairwise_within_range(points, radius))
                assert fast == brute_force_pairs(points, radius), \
                    (n, radius)

    def test_property_exact_boundary_distances(self):
        # A lattice with spacing exactly equal to the radius: every
        # orthogonal neighbor pair sits at distance == radius and must be
        # included (<=, not <), in every direction.
        radius = 0.125
        points = [(col * radius, row * radius)
                  for row in range(5) for col in range(5)]
        fast = set(pairwise_within_range(points, radius))
        expected = brute_force_pairs(points, radius)
        assert fast == expected
        # Sanity: the boundary pairs really are there (4-neighborhood).
        assert (0, 1) in fast and (0, 5) in fast and (0, 6) not in fast

    def test_property_negative_and_offset_coordinates(self):
        # Cell binning must not assume the unit square.
        rng = np.random.default_rng(3)
        points = rng.uniform(-5.0, 5.0, size=(80, 2))
        fast = set(pairwise_within_range(points, 0.8))
        assert fast == brute_force_pairs(points, 0.8)

    def test_many_coincident_points(self):
        points = [(0.3, 0.3)] * 6 + [(0.9, 0.9)]
        fast = set(pairwise_within_range(points, 0.05))
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

    def test_agrees_with_tuple_view(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(0, 1, size=(50, 2))
        pairs = pairs_within_range(points, 0.3)
        assert [tuple(p) for p in pairs.tolist()] == \
            pairwise_within_range(points, 0.3)

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
        assert np.array_equal(_sorted_rows(shuffled, len(points)), lexsorted)
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
        graph.check_symmetry()
