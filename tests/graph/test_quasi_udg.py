"""Tests for the quasi unit-disk model."""

import numpy as np
import pytest

from repro.graph.geometry import unit_disk_graph
from repro.graph.quasi_udg import quasi_uniform_topology, \
    quasi_unit_disk_graph
from repro.util.errors import ConfigurationError
from tests.oracles.graph import assert_symmetric


class TestQuasiUnitDiskGraph:
    def test_sandwiched_between_inner_and_outer_udg(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(120, 2))
        quasi, _ = quasi_unit_disk_graph(points, 0.08, 0.16, rng=rng)
        inner, _ = unit_disk_graph(points, 0.08)
        outer, _ = unit_disk_graph(points, 0.16)
        inner_edges = {frozenset(e) for e in inner.edges}
        outer_edges = {frozenset(e) for e in outer.edges}
        quasi_edges = {frozenset(e) for e in quasi.edges}
        assert inner_edges <= quasi_edges <= outer_edges

    def test_same_seed_same_graph(self):
        # Gray-zone draws consume the RNG in pair order, so determinism
        # relies on pairs_within_range's ordering contract
        # (lexicographic since the vectorized rewrite).
        points = np.random.default_rng(3).uniform(0, 1, size=(100, 2))
        first, _ = quasi_unit_disk_graph(points, 0.08, 0.16,
                                         rng=np.random.default_rng(11))
        second, _ = quasi_unit_disk_graph(points, 0.08, 0.16,
                                          rng=np.random.default_rng(11))
        assert {frozenset(e) for e in first.edges} == \
            {frozenset(e) for e in second.edges}

    def test_degenerate_gray_zone_is_plain_udg(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 1, size=(60, 2))
        quasi, _ = quasi_unit_disk_graph(points, 0.1, 0.1, rng=rng)
        plain, _ = unit_disk_graph(points, 0.1)
        assert {frozenset(e) for e in quasi.edges} == \
            {frozenset(e) for e in plain.edges}

    def test_gray_zone_probability_decays(self):
        # A pair near r_min should link far more often than near r_max.
        near = [(0.0, 0.0), (0.105, 0.0)]
        far = [(0.0, 0.0), (0.195, 0.0)]
        rng = np.random.default_rng(3)
        near_hits = sum(
            quasi_unit_disk_graph(near, 0.1, 0.2, rng=rng)[0].edge_count()
            for _ in range(200))
        far_hits = sum(
            quasi_unit_disk_graph(far, 0.1, 0.2, rng=rng)[0].edge_count()
            for _ in range(200))
        assert near_hits > 150
        assert far_hits < 50

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 1, size=(80, 2))
        graph, _ = quasi_unit_disk_graph(points, 0.05, 0.15, rng=rng)
        assert_symmetric(graph)

    def test_rejects_bad_radii(self):
        with pytest.raises(ConfigurationError):
            quasi_unit_disk_graph([(0, 0)], 0.2, 0.1)
        with pytest.raises(ConfigurationError):
            quasi_unit_disk_graph([(0, 0)], 0.0, 0.1)


class TestQuasiTopology:
    def test_builds_valid_topology(self):
        topo = quasi_uniform_topology(80, 0.08, 0.16, rng=5)
        assert len(topo.graph) == 80
        assert topo.radius == 0.16

    def test_clustering_stack_works_on_quasi_udg(self):
        # The paper's algorithm never uses geometry, only the graph; it
        # must work unchanged off the idealized disk model.
        from repro.clustering.oracle import compute_clustering
        topo = quasi_uniform_topology(100, 0.1, 0.18, rng=6)
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        clustering.check_invariants()

    def test_protocol_converges_on_quasi_udg(self):
        from repro.protocols.stack import standard_stack
        from repro.runtime.simulator import StepSimulator
        from repro.stabilization.monitor import steps_to_legitimacy
        from repro.stabilization.predicates import make_stack_predicate
        topo = quasi_uniform_topology(40, 0.12, 0.2, rng=7)
        sim = StepSimulator(topo, standard_stack(topology=topo), rng=8)
        report = steps_to_legitimacy(sim, make_stack_predicate(), 300)
        assert report.converged
