"""Property tests: graph structure invariants, and ``Graph(nodes, edges)``
against the add-edge loop of ``tests/oracles/graph.py``."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.graph import Graph
from repro.graph.paths import bfs_distances, connected_components
from repro.util.errors import TopologyError

from tests.oracles.graph import adjacency_of, assert_symmetric, reference_adjacency
from tests.property.strategies import graphs

# Ints and strings, drawn from small pools so edges repeat, reverse and
# share endpoints with the listed nodes.
ids = st.one_of(st.integers(-3, 12), st.sampled_from("abcdefg"))


@st.composite
def node_edge_lists(draw):
    """``(nodes, edges)`` with isolated nodes, repeated nodes, duplicate
    and reversed edges, and no self-loops."""
    nodes = draw(st.lists(ids, max_size=8))
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                          max_size=24))
    doubled = draw(st.lists(st.sampled_from(edges), max_size=6)) if edges else []
    edges += [(v, u) if draw(st.booleans()) else (u, v) for u, v in doubled]
    return nodes, edges


@settings(max_examples=60)
@given(graph=graphs())
def test_symmetry_always_holds(graph):
    assert_symmetric(graph)


@settings(max_examples=60)
@given(graph=graphs())
def test_degree_sum_equals_twice_edges(graph):
    assert sum(graph.degree(n) for n in graph) == 2 * graph.edge_count()


@settings(max_examples=60)
@given(graph=graphs(min_nodes=1))
def test_k_neighborhoods_are_monotone(graph):
    node = next(iter(graph))
    previous = set()
    for k in range(1, 5):
        current = graph.k_neighborhood(node, k)
        assert previous <= current
        previous = current


@settings(max_examples=60)
@given(graph=graphs(min_nodes=1))
def test_k_neighborhood_matches_bfs(graph):
    node = next(iter(graph))
    distances = bfs_distances(graph, node)
    for k in (1, 2, 3):
        expected = {q for q, d in distances.items() if 1 <= d <= k}
        assert graph.k_neighborhood(node, k) == expected


@settings(max_examples=60)
@given(graph=graphs())
def test_components_partition_nodes(graph):
    components = connected_components(graph)
    union = set()
    total = 0
    for component in components:
        assert not (component & union)
        union |= component
        total += len(component)
    assert union == set(graph.nodes)
    assert total == len(graph)


@settings(max_examples=150)
@given(lists=node_edge_lists())
def test_constructor_matches_add_edge_loop(lists):
    nodes, edges = lists
    graph = Graph(nodes=nodes, edges=edges)
    reference = reference_adjacency(nodes, edges)
    assert graph.nodes == list(reference)
    assert adjacency_of(graph) == reference
    assert [graph.degree(node) for node in graph] == \
        [len(neighbors) for neighbors in reference.values()]
    assert graph.edge_count() == len(graph.edges)
    assert {frozenset(edge) for edge in graph.edges} == \
        {frozenset(edge) for edge in edges}
    assert graph.max_degree() == max(map(len, reference.values()), default=0)
    assert_symmetric(graph)


@settings(max_examples=100)
@given(lists=node_edge_lists(), data=st.data())
def test_induced_subgraph_matches_oracle(lists, data):
    nodes, edges = lists
    graph = Graph(nodes=nodes, edges=edges)
    keep = data.draw(st.lists(st.sampled_from(graph.nodes))) if len(graph) else []
    sub = graph.induced_subgraph(keep)
    kept = set(keep)
    assert sub.nodes == list(kept)
    assert adjacency_of(sub) == reference_adjacency(
        kept, [(u, v) for u, v in edges if u in kept and v in kept])


@settings(max_examples=60)
@given(lists=node_edge_lists())
def test_pickle_round_trip(lists):
    graph = Graph(*lists)
    restored = pickle.loads(pickle.dumps(graph))
    assert restored.nodes == graph.nodes
    assert adjacency_of(restored) == adjacency_of(graph)
    assert restored.edges == graph.edges


@settings(max_examples=40)
@given(lists=node_edge_lists(), loop=ids, data=st.data())
def test_self_loops_raise(lists, loop, data):
    nodes, edges = lists
    edges.insert(data.draw(st.integers(0, len(edges))), (loop, loop))
    with pytest.raises(TopologyError, match="self-loop"):
        Graph(nodes=nodes, edges=edges)
    with pytest.raises(TopologyError, match="self-loop"):
        reference_adjacency(nodes, edges)
