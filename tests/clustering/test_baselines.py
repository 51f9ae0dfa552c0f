"""Tests for the baseline clustering heuristics."""

import pytest

from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.graph.generators import (
    complete_topology,
    line_topology,
    star_topology,
    uniform_topology,
)
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError
from tests.oracles import baselines as oracle


class TestGreedyDominating:
    """The greedy rule, through its lowest-ID instance."""

    def test_heads_form_dominating_set(self, random50):
        graph = random50.graph
        clustering = lowest_id_clustering(graph)
        for node in graph:
            assert clustering.is_head(node) or any(
                clustering.is_head(q) for q in graph.neighbors(node))

    def test_heads_are_independent_set(self, random50):
        clustering = lowest_id_clustering(random50.graph)
        clustering.check_invariants()  # includes heads-non-adjacent

    def test_one_hop_clusters(self, random50):
        graph = random50.graph
        clustering = lowest_id_clustering(graph)
        assert all(clustering.depth(node) <= 1 for node in graph)


class TestLowestId:
    def test_line_heads_alternate_from_zero(self):
        clustering = lowest_id_clustering(line_topology(5).graph)
        assert 0 in clustering.heads
        assert 1 not in clustering.heads

    def test_star_head_is_lowest(self):
        clustering = lowest_id_clustering(star_topology(4).graph)
        assert clustering.heads == {0}

    def test_custom_tie_ids_invert_choice(self):
        graph = line_topology(2).graph
        clustering = lowest_id_clustering(graph, tie_ids={0: 9, 1: 1})
        assert clustering.heads == {1}

    def test_members_join_lowest_adjacent_head(self):
        # Node 2 adjacent to heads 0 and ... construct: 0-2, 1-2, 0 and 1
        # not adjacent, both become heads?  0 covers 2, so 1 is uncovered
        # and becomes a head too; 2 joins min(0, 1) = 0.
        graph = Graph(edges=[(0, 2), (1, 2)])
        clustering = lowest_id_clustering(graph)
        assert clustering.heads == {0, 1}
        assert clustering.head(2) == 0

    def test_tie_ids_must_cover(self):
        with pytest.raises(ConfigurationError):
            lowest_id_clustering(line_topology(3).graph, tie_ids={0: 1})


class TestDegree:
    def test_highest_degree_becomes_head(self):
        clustering = degree_clustering(star_topology(5).graph)
        assert clustering.heads == {0}

    def test_degree_tie_falls_to_lower_id(self):
        clustering = degree_clustering(complete_topology(4).graph)
        assert clustering.heads == {0}

    def test_dominating_property(self, random50):
        clustering = degree_clustering(random50.graph)
        graph = random50.graph
        for node in graph:
            assert clustering.is_head(node) or any(
                clustering.is_head(q) for q in graph.neighbors(node))

    def test_tie_ids_must_cover(self):
        with pytest.raises(ConfigurationError):
            degree_clustering(line_topology(3).graph, tie_ids={})


class TestMaxMin:
    def test_every_node_gets_a_head(self, random50):
        clustering = maxmin_clustering(random50.graph, d=2)
        assert set(clustering.head_of) == set(random50.graph.nodes)

    def test_heads_head_themselves(self, random50):
        clustering = maxmin_clustering(random50.graph, d=2)
        for head in clustering.heads:
            assert clustering.head(head) == head

    def test_complete_graph_elects_max_id(self):
        # Floodmax makes the largest identifier win everywhere; rule 1
        # keeps it, everyone else adopts it.
        clustering = maxmin_clustering(complete_topology(5).graph, d=1)
        assert clustering.heads == {4}

    def test_line_with_d_spanning_everything(self):
        clustering = maxmin_clustering(line_topology(3).graph, d=3)
        assert clustering.heads == {2}

    def test_isolated_node_is_singleton_head(self):
        graph = Graph(nodes=[5], edges=[(0, 1)])
        clustering = maxmin_clustering(graph, d=2)
        assert clustering.is_head(5)

    def test_d_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            maxmin_clustering(line_topology(3).graph, d=0)

    def test_tie_ids_must_be_unique(self):
        with pytest.raises(ConfigurationError):
            maxmin_clustering(line_topology(2).graph, tie_ids={0: 1, 1: 1})

    def test_clusters_are_valid_forests(self):
        for seed in range(4):
            topo = uniform_topology(50, 0.22, rng=seed)
            clustering = maxmin_clustering(topo.graph, d=2)
            # Parents resolve without cycles and clusters are connected.
            for head in clustering.heads:
                clustering.head_eccentricity(head)

    def test_larger_d_means_no_more_clusters(self, random50):
        small = maxmin_clustering(random50.graph, d=1)
        large = maxmin_clustering(random50.graph, d=3)
        assert large.cluster_count <= small.cluster_count


class TestVectorizedAgainstReference:
    """The engines' first windows reproduce the per-node oracles bit for
    bit."""

    def test_greedy_matches_reference_on_random_graphs(self):
        for seed in range(6):
            topo = uniform_topology(60, 0.18, rng=seed)
            for fast, slow in (
                    (lowest_id_clustering, oracle.lowest_id_clustering),
                    (degree_clustering, oracle.degree_clustering)):
                got = fast(topo.graph, tie_ids=topo.ids)
                want = slow(topo.graph, tie_ids=topo.ids)
                assert got.heads == want.heads
                assert got.parents == want.parents

    def test_greedy_matches_reference_on_shapes(self):
        for topo in (line_topology(7), star_topology(6),
                     complete_topology(5)):
            graph = topo.graph
            fast = lowest_id_clustering(graph)
            slow = oracle.lowest_id_clustering(graph)
            assert fast.parents == slow.parents

    def test_maxmin_matches_reference_on_random_graphs(self):
        for seed in range(6):
            topo = uniform_topology(60, 0.15, rng=seed)
            for d in (1, 2, 3):
                fast = maxmin_clustering(topo.graph, d=d, tie_ids=topo.ids)
                slow = oracle.maxmin_clustering(topo.graph, d=d,
                                                tie_ids=topo.ids)
                assert fast.heads == slow.heads
                assert fast.parents == slow.parents

    def test_maxmin_singleton_fallback_matches_reference(self):
        # This seed triggers the disconnected-member fallback at d=2
        # (see tests/property/test_engine_properties.py).
        topo = uniform_topology(30, 0.12, rng=57)
        fast = maxmin_clustering(topo.graph, d=2, tie_ids=topo.ids)
        slow = oracle.maxmin_clustering(topo.graph, d=2, tie_ids=topo.ids)
        assert fast.parents == slow.parents

    @pytest.mark.parametrize("clusterer", [degree_clustering,
                                           lowest_id_clustering])
    def test_non_unique_tie_ids_rejected(self, clusterer):
        """The same input max-min, both baseline engines and
        ``Topology`` reject."""
        graph = line_topology(4).graph
        with pytest.raises(ConfigurationError,
                           match="tie_ids must be globally unique"):
            clusterer(graph, tie_ids={0: 1, 1: 1, 2: 5, 3: 5})

    def test_empty_graph(self):
        assert lowest_id_clustering(Graph()).parents == {}
        assert degree_clustering(Graph()).parents == {}
        assert maxmin_clustering(Graph(), d=2).parents == {}
