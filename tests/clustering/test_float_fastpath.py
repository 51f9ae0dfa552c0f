"""The float density fast path: exactness, isolation, tie refinement."""

from fractions import Fraction

import numpy as np
import pytest

import repro.clustering.incremental as incremental
from repro.clustering.density import (
    ISOLATED_DENSITY,
    all_densities,
    density_float_image,
    float_tie_mask,
)
from repro.clustering.incremental import IncrementalElection
from repro.graph.graph import Graph
from tests.oracles import triangles as triangles_oracle
from tests.oracles.election import compute_clustering


def complete_graph(n):
    return Graph(nodes=range(n),
                 edges=[(u, v) for u in range(n) for v in range(u + 1, n)])


def sweep_graphs():
    lone = Graph(nodes=[0])
    isolates = Graph(nodes=range(5))
    mixed = Graph(nodes=range(6), edges=[(0, 1), (1, 2), (0, 2)])  # 3-5 isolated
    return [lone, isolates, mixed, complete_graph(5), Graph()]


class TestIsolatedConsistency:
    @pytest.mark.parametrize("exact", [False, True])
    def test_csr_and_dict_backends_agree_on_the_sweep(self, exact):
        for graph in sweep_graphs():
            via_csr = all_densities(graph, exact=exact)
            assert via_csr == triangles_oracle.all_densities(graph,
                                                             exact=exact)
            for node in graph:
                if graph.degree(node) == 0:
                    expected = Fraction(0) if exact else ISOLATED_DENSITY
                    assert via_csr[node] == expected
                    assert type(via_csr[node]) is type(expected)

    def test_isolated_rows_pinned_in_the_kernel(self):
        values = density_float_image([0, 3, 0], [0, 2, 0])
        assert values[0] == ISOLATED_DENSITY
        assert values[2] == ISOLATED_DENSITY
        assert values[1] == (3 + 2) / 3


class TestFloatTieMask:
    def test_marks_exactly_the_duplicated_values(self):
        mask = float_tie_mask([1.0, 2.0, 1.0, 3.0, 2.0, 2.0])
        assert mask.tolist() == [True, True, True, False, True, True]

    def test_all_distinct_means_no_ties(self):
        assert not float_tie_mask([0.5, 1.5, 2.5]).any()

    def test_empty(self):
        assert float_tie_mask([]).size == 0


def drive_with_limit(monkeypatch, limit, order="incumbent", fusion=True,
                     seed=7, count=220):
    """One random deployment, engine vs oracle, with a forced limit."""
    monkeypatch.setattr(incremental, "FLOAT_RANK_LIMIT", limit)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 1, size=(count, 2))
    from repro.graph.geometry import unit_disk_graph

    graph, _ = unit_disk_graph(positions, 0.15)
    densities = all_densities(graph, exact=True)
    tie_ids = {node: node for node in graph}
    engine = IncrementalElection(order=order, fusion=fusion)
    fast = engine.update(graph, densities, tie_ids=tie_ids)
    oracle = compute_clustering(graph, tie_ids=tie_ids, order=order,
                                fusion=fusion, densities=densities)
    assert fast.parents == oracle.parents
    assert fast.heads == oracle.heads


class TestTieRefinement:
    @pytest.mark.parametrize("order,fusion", [
        ("basic", False), ("basic", True),
        ("incumbent", False), ("incumbent", True),
    ])
    def test_refined_ranking_matches_oracle(self, monkeypatch, order, fusion):
        # Limit 10 forces the refinement column on a graph full of real
        # float ties (equal Fractions); the election must not move.
        drive_with_limit(monkeypatch, 10, order=order, fusion=fusion)

    def test_distinct_fractions_sharing_a_float_are_separated(
            self, monkeypatch):
        # Engineered tie: both densities round to float 1.0 but the exact
        # values differ, so only the refinement column can order them.
        monkeypatch.setattr(incremental, "FLOAT_RANK_LIMIT", 2)
        graph = Graph(nodes=range(4), edges=[(0, 1), (1, 2), (2, 3)])
        densities = {
            0: Fraction(1),
            1: Fraction(2**53 + 1, 2**53),  # float(...) == 1.0 exactly
            2: Fraction(2),
            3: Fraction(2),
        }
        assert float(densities[0]) == float(densities[1])
        tie_ids = {0: 0, 1: 1, 2: 2, 3: 3}  # float-only order favors node 0
        engine = IncrementalElection(order="basic")
        fast = engine.update(graph, densities, tie_ids=tie_ids)
        oracle = compute_clustering(graph, tie_ids=tie_ids, order="basic",
                                    densities=densities)
        assert fast.parents == oracle.parents
        assert fast.heads == oracle.heads
        refine = engine._refinement(densities)
        assert refine[0] != refine[1]  # the exact order survived rounding
        assert refine[2] == refine[3]  # equal Fractions share a sub-rank

    def test_below_limit_no_refinement_is_computed(self):
        graph = complete_graph(5)
        densities = all_densities(graph, exact=True)
        engine = IncrementalElection(order="basic")
        engine.update(graph, densities, tie_ids={n: n for n in graph})
        assert engine._refine is None
