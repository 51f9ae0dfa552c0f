"""Kernel vs dict-backend traversal equivalence.

The CSR traversal kernel must be observationally identical to the
per-node oracles of ``tests/oracles/traversal.py`` on every graph shape
the workloads produce: random (often disconnected) hypothesis graphs
with isolated nodes, geometric UDG / quasi-UDG deployments, and
clusterings with single-node clusters.  Distances, components, joining-forest depths and
head eccentricities are all tie-break-free, so equality is exact.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.clustering.baselines import lowest_id_clustering, maxmin_clustering
from repro.graph.generators import uniform_topology
from repro.graph.paths import bfs_distances, connected_components, \
    hop_distance
from repro.graph.quasi_udg import quasi_uniform_topology
from repro.graph.traversal import DistanceSweep

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


def assert_sweep_lookups_match(graph, source, lookups):
    """One :class:`DistanceSweep` answers ``lookups`` in order: every
    answer, and every entry the sweep has reached after each lookup,
    equals the deque BFS, and the reached entries are whole levels.  An
    exhausted sweep answers from ``dist`` alone.  ``hop_distance``, a
    fresh sweep per call, agrees too.  Returns how many lookups met an
    exhausted sweep."""
    csr = graph.to_csr()
    ids = csr.ids
    truth = oracle.bfs_distances(graph, ids[source])
    full = np.array([truth.get(node, -1) for node in ids], dtype=np.int64)
    sweep = DistanceSweep(csr, source)
    exhausted_lookups = 0
    for row in lookups:
        exhausted = sweep._frontier.size == 0
        before = sweep.dist.copy()
        assert sweep.distance(row) == full[row]
        if exhausted:
            exhausted_lookups += 1
            np.testing.assert_array_equal(sweep.dist, before)
        reached = sweep.dist >= 0
        np.testing.assert_array_equal(sweep.dist[reached], full[reached])
        np.testing.assert_array_equal(
            reached, (full >= 0) & (full <= sweep.dist.max()))
        hops = hop_distance(graph, ids[source], ids[row])
        assert hops == (math.inf if full[row] < 0 else full[row])
    return exhausted_lookups


@settings(max_examples=80, deadline=None)
@given(graph=graphs(), data=st.data())
def test_sweep_lookups_match_on_random_graphs(graph, data):
    """Random lookup sequences on random graphs: disconnected graphs,
    isolated rows, lookups of the source itself, repeats, and lookups
    after the sweep ran out of rows."""
    n = len(graph)
    source = data.draw(st.integers(0, n - 1))
    rows = st.one_of(st.just(source), st.integers(0, n - 1))
    lookups = data.draw(st.lists(rows, min_size=1, max_size=12))
    if assert_sweep_lookups_match(graph, source, lookups):
        event("lookup on an exhausted sweep")


@pytest.mark.parametrize("seed,count,radius,exhausts", [
    (31, 200, 0.1, False), (32, 300, 0.05, True),
])
def test_sweep_lookups_match_on_udg(seed, count, radius, exhausts):
    """Deployments deep enough for both sides to grow several levels;
    the sparse one has many components, and its sweeps run out of rows
    early."""
    topo = uniform_topology(count, radius, rng=seed)
    lookups = np.random.default_rng(seed).integers(0, count, 40).tolist()
    exhausted = [assert_sweep_lookups_match(topo.graph, source, lookups)
                 for source in (0, count // 2)]
    assert (sum(exhausted) > 0) == exhausts


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
