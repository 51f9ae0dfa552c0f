"""Tests for the centralized clustering oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.oracle import _int64_ids, compute_clustering
from repro.graph.generators import (
    complete_topology,
    line_topology,
    square_grid_topology,
    star_topology,
    uniform_topology,
)
from repro.graph.graph import Graph
from repro.graph.paths import hop_distance
from repro.util.errors import ConfigurationError
from tests.oracles.election import int64_ids


class TestFigure1:
    """The paper's worked example pins down parents and heads."""

    def test_heads_are_h_and_j(self, fig1):
        clustering = compute_clustering(fig1.graph, tie_ids=fig1.ids)
        assert clustering.heads == {"h", "j"}

    def test_parent_assignments_from_the_text(self, fig1):
        clustering = compute_clustering(fig1.graph, tie_ids=fig1.ids)
        assert clustering.parent("c") == "b"   # F(c) = b
        assert clustering.parent("b") == "h"   # F(b) = h
        assert clustering.parent("h") == "h"   # H(h) = h
        assert clustering.parent("f") == "j"   # F(f) = j
        assert clustering.parent("j") == "j"   # F(j) = j

    def test_head_chains_from_the_text(self, fig1):
        clustering = compute_clustering(fig1.graph, tie_ids=fig1.ids)
        for node in ("c", "b", "h"):
            assert clustering.head(node) == "h"
        for node in ("f", "j"):
            assert clustering.head(node) == "j"

    def test_invariants_hold(self, fig1):
        clustering = compute_clustering(fig1.graph, tie_ids=fig1.ids)
        clustering.check_invariants()


class TestBasicRule:
    def test_line_collapses_to_smallest_id(self):
        # Equal densities everywhere on a path; node 0 wins everything
        # within reach, chains merge to it.
        topo = line_topology(5)
        clustering = compute_clustering(topo.graph)
        assert clustering.heads == {0}
        assert clustering.head(4) == 0

    def test_star_center_wins(self):
        topo = star_topology(5)
        clustering = compute_clustering(topo.graph)
        # Leaves have density 1, center density 1; tie -> smallest id = 0.
        assert clustering.heads == {0}

    def test_complete_graph_single_cluster(self):
        topo = complete_topology(6)
        clustering = compute_clustering(topo.graph)
        assert clustering.cluster_count == 1
        assert clustering.average_tree_length() <= 1.0

    def test_isolated_nodes_are_their_own_heads(self):
        graph = Graph(nodes=["x", "y"], edges=[(1, 2)])
        clustering = compute_clustering(graph,
                                        tie_ids={"x": 10, "y": 11, 1: 1, 2: 2})
        assert clustering.is_head("x")
        assert clustering.is_head("y")

    def test_no_two_heads_adjacent_on_random_graphs(self):
        for seed in range(5):
            topo = uniform_topology(60, 0.2, rng=seed)
            clustering = compute_clustering(topo.graph)
            clustering.check_invariants()

    def test_deterministic(self, random50):
        a = compute_clustering(random50.graph)
        b = compute_clustering(random50.graph)
        assert a.parents == b.parents


class TestDagIds:
    def test_dag_ids_change_tie_breaks(self):
        # Path 0-1-2 with equal densities: normal ids elect 0; DAG names
        # can elect 1 instead.
        topo = line_topology(3)
        dag_ids = {0: 5, 1: 0, 2: 7}
        clustering = compute_clustering(topo.graph, dag_ids=dag_ids)
        assert clustering.heads == {1}

    def test_duplicate_distant_dag_ids_fall_back_to_tie_ids(self):
        # Nodes 0 and 2 share a DAG name but are not neighbors; the
        # globally unique tie id disambiguates without error.
        topo = line_topology(3)
        dag_ids = {0: 4, 1: 9, 2: 4}
        clustering = compute_clustering(topo.graph, dag_ids=dag_ids)
        clustering.check_invariants()

    def test_dag_ids_must_cover_nodes(self):
        topo = line_topology(3)
        with pytest.raises(ConfigurationError):
            compute_clustering(topo.graph, dag_ids={0: 1})


class TestGridPathology:
    def test_grid_without_dag_single_cluster(self):
        topo = square_grid_topology(100, radius=0.18)  # 10x10, 8-neighbors
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        assert clustering.cluster_count == 1

    def test_grid_with_dag_many_clusters(self):
        from repro.naming.assign import assign_dag_ids
        import numpy as np
        topo = square_grid_topology(100, radius=0.18)
        dag_ids, _ = assign_dag_ids(topo, np.random.default_rng(0))
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids,
                                        dag_ids=dag_ids)
        assert clustering.cluster_count >= 4


class TestIncumbentOrder:
    def test_incumbent_head_survives_tie(self):
        # Path 0-1: equal densities; basic elects 0.  With node 1 as the
        # incumbent head, the incumbent order keeps 1.
        topo = line_topology(2)
        basic = compute_clustering(topo.graph)
        assert basic.heads == {0}
        kept = compute_clustering(topo.graph, order="incumbent",
                                  previous={1})
        assert kept.heads == {1}

    def test_no_previous_behaves_like_basic(self, random50):
        basic = compute_clustering(random50.graph)
        incumbent = compute_clustering(random50.graph, order="incumbent")
        assert basic.parents == incumbent.parents

    def test_previous_clustering_object_accepted(self, random50):
        first = compute_clustering(random50.graph)
        second = compute_clustering(random50.graph, order="incumbent",
                                    previous=first)
        # Unchanged topology: the incumbent solution is stationary.
        assert second.heads == first.heads

    def test_density_beats_incumbency(self):
        # Star center has higher density than a leaf incumbent after the
        # leaf loses its advantage: density dominates the head bit.
        graph = Graph(edges=[(0, 1), (0, 2), (1, 2), (0, 3)])
        # Node 0: N={1,2,3}, links 3+1=4 -> 4/3; node 3: N={0} -> 1.
        kept = compute_clustering(graph, order="incumbent", previous={3})
        assert not kept.is_head(3)


class TestFusion:
    def test_heads_at_least_three_hops_apart(self):
        for seed in range(6):
            topo = uniform_topology(60, 0.2, rng=seed)
            clustering = compute_clustering(topo.graph, fusion=True)
            clustering.check_fusion_separation()

    def test_fusion_never_increases_cluster_count(self):
        for seed in range(6):
            topo = uniform_topology(60, 0.2, rng=seed)
            basic = compute_clustering(topo.graph)
            fused = compute_clustering(topo.graph, fusion=True)
            assert fused.cluster_count <= basic.cluster_count

    def test_two_hop_heads_merge(self):
        # Path of 3: basic elects only node 0 (ids break the tie), so add
        # geometry where two 2-hop local maxima exist: 5-node path with
        # densities forced by triangles at both ends.
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4),
                             (0, 5), (1, 5),    # triangle at left end
                             (3, 6), (4, 6)])   # triangle at right end
        basic = compute_clustering(graph)
        if len(basic.heads) >= 2:
            heads = sorted(basic.heads)
            dist = hop_distance(graph, heads[0], heads[1])
            fused = compute_clustering(graph, fusion=True)
            if dist <= 2:
                assert len(fused.heads) < len(basic.heads)

    def test_fusion_clusters_remain_connected(self):
        for seed in range(4):
            topo = uniform_topology(70, 0.18, rng=seed + 50)
            clustering = compute_clustering(topo.graph, fusion=True)
            clustering.check_invariants()


class TestValidation:
    def test_tie_ids_must_be_unique(self):
        topo = line_topology(3)
        with pytest.raises(ConfigurationError):
            compute_clustering(topo.graph, tie_ids={0: 1, 1: 1, 2: 2})

    def test_tie_ids_must_cover(self):
        topo = line_topology(3)
        with pytest.raises(ConfigurationError):
            compute_clustering(topo.graph, tie_ids={0: 1})

    def test_unknown_order_rejected(self):
        topo = line_topology(3)
        with pytest.raises(ConfigurationError):
            compute_clustering(topo.graph, order="nope")

    def test_precomputed_densities_used(self, fig1):
        from repro.clustering.density import all_densities
        densities = all_densities(fig1.graph, exact=True)
        clustering = compute_clustering(fig1.graph, tie_ids=fig1.ids,
                                        densities=densities)
        assert clustering.heads == {"h", "j"}


_LOW, _HIGH = -2 ** 63, 2 ** 63 - 1
_identifiers = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([_LOW, _LOW + 1, _HIGH, _HIGH + 1, 2 ** 64, -2 ** 70]),
    st.integers(),
    st.booleans(),
    st.sampled_from([0, 1, _HIGH, _HIGH + 1, 2 ** 64 - 1]).map(np.uint64),
    st.sampled_from([_LOW, _LOW + 1, -1, _HIGH]).map(np.int64),
    st.integers(-3, 3).map(np.int8),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)


class TestInt64Ids:
    """The engine's identifier check answers as the value-by-value
    oracle does."""

    @settings(max_examples=400, deadline=None)
    @given(ids=st.dictionaries(st.integers(0, 30), _identifiers,
                               max_size=8))
    def test_equals_oracle(self, ids):
        assert _int64_ids(ids) == int64_ids(ids)

    @pytest.mark.parametrize("values, expected", [
        ([], True),
        ([_LOW + 1, _HIGH], True),
        ([_LOW], False),
        ([_HIGH + 1], False),
        ([True, 2], True),
        ([np.uint64(2 ** 64 - 1)], False),
        ([np.int64(_HIGH), 3], True),
        ([1.0], False),
        (["1"], False),
        ([1, "1"], False),
    ])
    def test_cases(self, values, expected):
        ids = dict(enumerate(values))
        assert bool(_int64_ids(ids)) is expected
        assert bool(int64_ids(ids)) is expected
