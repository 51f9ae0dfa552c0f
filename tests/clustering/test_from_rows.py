"""``Clustering.from_rows``: parity with the validating constructor,
row ownership across engine windows, and pickling.

Every engine hands its parent rows to :meth:`Clustering.from_rows`; the
per-node oracles build the same clusterings through the validating
``Clustering(graph, parents)``.  Both must yield equal ``parents``,
``head_of``, ``clusters`` and ``heads`` that iterate in the same order.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.baselines import (
    GreedyDominatingEngine,
    MaxMinEngine,
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.engine import engine_for
from repro.clustering.oracle import compute_clustering
from repro.clustering.result import Clustering
from repro.graph.dynamic import DynamicTopology, WindowUpdate
from repro.graph.generators import Topology, uniform_topology
from repro.graph.graph import Graph
from tests.oracles import baselines as baseline_oracles
from tests.oracles import election as election_oracle
from tests.property.strategies import graphs


def assert_same(fast, reference):
    """Equal dicts and heads, iterated in the same order, and equal
    metrics and cluster labels."""
    for name in ("parents", "head_of", "clusters"):
        got, want = getattr(fast, name), getattr(reference, name)
        assert list(got.items()) == list(want.items()), name
    assert [list(m) for m in fast.clusters.values()] == \
        [list(m) for m in reference.clusters.values()]
    assert fast.heads == reference.heads
    assert list(fast.heads) == list(reference.heads)
    for node in reference.parents:
        assert fast.depth(node) == reference.depth(node)
        assert fast.is_head(node) == reference.is_head(node)
    for head in reference.heads:
        assert fast.tree_length(head) == reference.tree_length(head)
        assert fast.head_eccentricity(head) == \
            reference.head_eccentricity(head)
    assert fast.average_tree_length() == reference.average_tree_length()
    assert fast.average_head_eccentricity() == \
        reference.average_head_eccentricity()
    np.testing.assert_array_equal(fast.cluster_rows()[1],
                                  reference.cluster_rows()[1])


def backed(graph, backing):
    """``graph`` itself (``dict``: as ``Graph(nodes, edges)`` built it), a
    ``from_pair_array`` rebuild over the same ids, or one whose ids are
    strings."""
    if backing == "dict":
        return graph
    csr = graph.to_csr()
    pairs = np.column_stack(csr.edge_arrays())
    ids = csr.ids if backing == "csr" else [f"n{node}" for node in csr.ids]
    return Graph.from_pair_array(pairs, ids)


@st.composite
def forests(draw):
    """``(graph, rows)``: a random graph (possibly empty, with isolated
    nodes) and an acyclic parent-row array over its CSR rows; a row
    points only at a neighbor of higher random rank."""
    graph = draw(graphs(min_nodes=0, max_nodes=14))
    csr = graph.to_csr()
    n = len(csr)
    rank = draw(st.permutations(range(n)))
    rows = np.arange(n, dtype=np.int64)
    for row in range(n):
        higher = [int(nbr) for nbr in csr.neighbors_of(row)
                  if rank[nbr] > rank[row]]
        if higher and draw(st.booleans()):
            rows[row] = draw(st.sampled_from(higher))
    return graph, rows


def by_dict(graph, rows):
    """The validating constructor over the parents that ``rows`` name."""
    ids = graph.to_csr().ids
    return Clustering(graph, {ids[i]: ids[p] for i, p in enumerate(rows)})


class TestRowParity:
    @settings(max_examples=80, deadline=None)
    @given(forests(), st.sampled_from(["dict", "csr", "csr-named"]))
    def test_random_forests(self, case, backing):
        graph, rows = case
        graph = backed(graph, backing)
        assert_same(Clustering.from_rows(graph, rows.copy()),
                    by_dict(graph, rows.tolist()))

    @pytest.mark.parametrize("backing", ["dict", "csr", "csr-named"])
    def test_empty_graph(self, backing):
        graph = backed(Graph(), backing)
        fast = Clustering.from_rows(graph, np.empty(0, dtype=np.int64))
        assert_same(fast, Clustering(graph, {}))
        assert fast.heads == frozenset() and fast.parents == {}

    @pytest.mark.parametrize("backing", ["dict", "csr", "csr-named"])
    def test_isolated_nodes(self, backing):
        graph = backed(Graph(nodes=[7, 3, 5], edges=[(3, 5)]), backing)
        ids = graph.to_csr().ids
        rows = np.array([0, 1, 1], dtype=np.int64)  # 5 joins 3
        fast = Clustering.from_rows(graph, rows)
        assert_same(fast, by_dict(graph, rows.tolist()))
        assert fast.heads == {ids[0], ids[1]}
        assert fast.members(ids[1]) == {ids[1], ids[2]}

    def test_parents_in_another_order(self):
        """Positions follow the parents map, not the graph's rows; the
        metrics, labels and head mask still read the graph's rows."""
        graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        parents = {0: 1, 1: 1, 2: 1, 3: 4, 4: 4}
        reordered = Clustering(graph, dict(reversed(parents.items())))
        natural = Clustering(graph, parents)
        assert list(reordered.parents) == [4, 3, 2, 1, 0]
        assert reordered.heads == natural.heads == {1, 4}
        for head in natural.heads:
            assert reordered.tree_length(head) == natural.tree_length(head)
            assert reordered.head_eccentricity(head) == \
                natural.head_eccentricity(head)
        np.testing.assert_array_equal(reordered.cluster_rows()[1],
                                      natural.cluster_rows()[1])
        ids = graph.to_csr().ids
        for clustering in (reordered, natural):
            assert clustering.head_mask(ids).tolist() == \
                [node in natural.heads for node in ids]
            assert clustering.head_mask((4, 1)).tolist() == [True, True]

    def test_rows_become_read_only(self):
        graph = Graph(edges=[(0, 1)])
        rows = np.array([0, 0], dtype=np.int64)
        Clustering.from_rows(graph, rows)
        with pytest.raises(ValueError):
            rows[1] = 1


def _tie_ids(data, graph):
    nodes = list(graph)
    values = data.draw(st.permutations(range(len(nodes))))
    return dict(zip(nodes, values))


class TestEngineParity:
    """Each engine (``from_rows``) against its per-node oracle (the
    validating constructor) on random graphs."""

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_nodes=0, max_nodes=14),
           st.sampled_from(["dict", "csr"]), st.data())
    def test_density_orders(self, graph, backing, data):
        graph = backed(graph, backing)
        tie_ids = _tie_ids(data, graph)
        previous = frozenset(node for node in graph if data.draw(st.booleans()))
        for order, fusion in (("basic", False), ("incumbent", True)):
            options = dict(tie_ids=tie_ids, order=order, fusion=fusion,
                           previous=previous)
            assert_same(compute_clustering(graph, **options),
                        election_oracle.compute_clustering(graph, **options))

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_nodes=0, max_nodes=14),
           st.sampled_from(["dict", "csr"]), st.data())
    def test_baselines_and_their_engines(self, graph, backing, data):
        graph = backed(graph, backing)
        tie_ids = _tie_ids(data, graph)
        topology = Topology(graph, ids=tie_ids)
        lowest = baseline_oracles.lowest_id_clustering(graph, tie_ids=tie_ids)
        degree = baseline_oracles.degree_clustering(graph, tie_ids=tie_ids)
        maxmin = baseline_oracles.maxmin_clustering(graph, d=2,
                                                    tie_ids=tie_ids)
        assert_same(lowest_id_clustering(graph, tie_ids=tie_ids), lowest)
        assert_same(degree_clustering(graph, tie_ids=tie_ids), degree)
        assert_same(maxmin_clustering(graph, d=2, tie_ids=tie_ids), maxmin)
        if len(graph):
            assert_same(GreedyDominatingEngine("lowest-id").init(topology),
                        lowest)
            assert_same(GreedyDominatingEngine("degree").init(topology),
                        degree)
            assert_same(MaxMinEngine(d=2).init(topology), maxmin)


class TestRowOwnership:
    @pytest.mark.parametrize("metric",
                             ["lowest-id", "degree", "max-min", "density"])
    def test_returned_clustering_survives_later_windows(self, metric):
        """Five repair windows after a clustering was returned, it still
        reads as it did: the engine repaired its own rows, not the
        clustering's."""
        rng = np.random.default_rng(11)
        positions = rng.uniform(0, 1, size=(250, 2))
        dynamic = DynamicTopology(positions, 0.08)
        engine = engine_for(metric)
        first = engine.apply_delta(WindowUpdate(
            topology=dynamic.topology, delta=None, density_changed=None,
            densities=dynamic.densities))
        # A pickle carries the rows only, so no dict is read before the
        # windows run.
        frozen = pickle.dumps(first)
        returned = {id(first)}
        for _ in range(5):
            movers = rng.choice(250, size=2, replace=False)
            positions = positions.copy()
            positions[movers] += rng.uniform(-0.02, 0.02, size=(2, 2))
            positions = np.clip(positions, 0, 1)
            returned.add(id(engine.apply_delta(dynamic.move(positions))))
        assert len(returned) > 1  # some window re-clustered
        want = pickle.loads(frozen)
        assert list(first.parents.items()) == list(want.parents.items())
        assert list(first.head_of.items()) == list(want.head_of.items())
        assert first.heads == want.heads


class TestPickling:
    def _clustering(self):
        topo = uniform_topology(120, 0.15, rng=4)
        return compute_clustering(topo.graph, tie_ids=topo.ids,
                                  order="incumbent", fusion=True)

    def test_round_trip_fresh_and_after_reads(self):
        clustering = self._clustering()
        fresh = pickle.dumps(clustering)
        assert_same(pickle.loads(fresh), clustering)  # reads every dict
        after_reads = pickle.dumps(clustering)
        assert_same(pickle.loads(after_reads), clustering)
        # Neither the built dicts nor the node index travel.
        assert len(after_reads) == len(fresh)

    def test_pickle_is_smaller_than_its_dicts(self):
        clustering = self._clustering()
        dicts = {name: getattr(clustering, name)
                 for name in ("graph", "densities", "parents", "head_of",
                              "clusters", "heads")}
        assert len(pickle.dumps(clustering)) < len(pickle.dumps(dicts))

    def test_named_nodes_round_trip(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        clustering = Clustering(graph, {"a": "b", "b": "b", "c": "b"})
        assert_same(pickle.loads(pickle.dumps(clustering)), clustering)
