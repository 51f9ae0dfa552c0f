"""Kernel vs dict-backend traversal equivalence.

The CSR traversal kernel must be observationally identical to the
per-node oracles of ``tests/oracles/traversal.py`` on every graph shape
the workloads produce: random (often disconnected) hypothesis graphs
with isolated nodes, geometric UDG / quasi-UDG deployments, and
clusterings with single-node clusters.  Distances, components, joining-forest depths and
head eccentricities are all tie-break-free, so equality is exact.
"""

import pytest
from hypothesis import given, settings

from repro.clustering.baselines.lowest_id import lowest_id_clustering
from repro.clustering.baselines.maxmin import maxmin_clustering
from repro.graph.generators import uniform_topology
from repro.graph.paths import bfs_distances, connected_components
from repro.graph.quasi_udg import quasi_uniform_topology

from tests.oracles import traversal as oracle
from tests.property.strategies import graphs


def assert_traversals_match(graph):
    components = connected_components(graph)
    reference = oracle.connected_components(graph)
    assert sorted(map(sorted, components)) == sorted(map(sorted, reference))
    for source in graph.nodes:
        assert bfs_distances(graph, source) == \
            oracle.bfs_distances(graph, source)


def assert_clustering_metrics_match(clustering):
    for node in clustering.parents:
        assert clustering.depth(node) == oracle.depth(clustering, node)
    for head in clustering.heads:
        assert clustering.tree_length(head) == \
            oracle.tree_length(clustering, head)
        assert clustering.head_eccentricity(head) == \
            oracle.head_eccentricity(clustering, head)


@settings(max_examples=60)
@given(graph=graphs())
def test_bfs_and_components_match_on_random_graphs(graph):
    """Includes disconnected graphs and isolated nodes by construction."""
    assert_traversals_match(graph)


@pytest.mark.parametrize("seed,count,radius", [
    (11, 60, 0.15), (12, 120, 0.1), (13, 80, 0.02),
])
def test_bfs_and_components_match_on_udg(seed, count, radius):
    topo = uniform_topology(count, radius, rng=seed)
    assert_traversals_match(topo.graph)


@pytest.mark.parametrize("seed,count,r_min,r_max", [
    (14, 60, 0.1, 0.2), (15, 90, 0.05, 0.1),
])
def test_bfs_and_components_match_on_quasi_udg(seed, count, r_min, r_max):
    topo = quasi_uniform_topology(count, r_min, r_max, rng=seed)
    assert_traversals_match(topo.graph)


@settings(max_examples=40, deadline=None)
@given(graph=graphs(min_nodes=1, max_nodes=14))
def test_clustering_metrics_match_on_random_graphs(graph):
    """Sparse random graphs produce plenty of single-node clusters, so the
    pointer-doubling depths and the batched eccentricity sweep both see
    degenerate trees alongside real ones."""
    clustering = lowest_id_clustering(graph)
    assert_clustering_metrics_match(clustering)


@settings(max_examples=25, deadline=None)
@given(graph=graphs(min_nodes=2, max_nodes=12))
def test_maxmin_metrics_match_on_random_graphs(graph):
    """max-min exercises the label-constrained sweep end to end: its
    joining forest is itself built from the batched BFS."""
    clustering = maxmin_clustering(graph, d=2)
    assert_clustering_metrics_match(clustering)


@pytest.mark.parametrize("seed,count,radius", [
    (21, 80, 0.12), (22, 150, 0.1),
])
def test_clustering_metrics_match_on_udg(seed, count, radius):
    topo = uniform_topology(count, radius, rng=seed)
    clustering = maxmin_clustering(topo.graph, d=2, tie_ids=topo.ids)
    assert_clustering_metrics_match(clustering)


def test_all_singleton_clusters():
    """Edgeless graph: every node is its own head with eccentricity 0."""
    from repro.clustering.result import Clustering
    from repro.graph.graph import Graph

    graph = Graph(nodes=range(5))
    clustering = Clustering(graph, {n: n for n in range(5)})
    assert_clustering_metrics_match(clustering)
    assert clustering.average_tree_length() == 0.0
    assert clustering.average_head_eccentricity() == 0.0
