"""Property tests: density bounds and equivalences on arbitrary graphs,
and the float fast path against the exact fractions."""

from fractions import Fraction

from hypothesis import given, settings

from repro.clustering.density import all_densities, density, density_bounds
from repro.graph.graph import Graph

from tests.property.strategies import graphs


@settings(max_examples=60)
@given(graph=graphs())
def test_density_within_bounds(graph):
    for node, value in all_densities(graph).items():
        low, high = density_bounds(graph.degree(node))
        assert low <= value <= high


@settings(max_examples=60)
@given(graph=graphs())
def test_bulk_equals_per_node(graph):
    bulk = all_densities(graph, exact=True)
    for node in graph:
        assert bulk[node] == density(graph, node, exact=True)


@settings(max_examples=60)
@given(graph=graphs())
def test_density_is_at_least_one_for_connected_nodes(graph):
    for node, value in all_densities(graph, exact=True).items():
        if graph.degree(node) > 0:
            assert value >= 1
        else:
            assert value == Fraction(0)


@settings(max_examples=40)
@given(graph=graphs(min_nodes=2))
def test_adding_an_edge_between_neighbors_of_p_raises_density(graph):
    # Find a node with two non-adjacent neighbors; closing the wedge must
    # strictly increase its density and leave its degree unchanged.
    for node in graph:
        neighbors = sorted(graph.neighbors(node))
        for i, u in enumerate(neighbors):
            for v in neighbors[i + 1:]:
                if not graph.has_edge(u, v):
                    before = density(graph, node, exact=True)
                    closed = Graph(nodes=graph.nodes,
                                   edges=graph.edges + [(u, v)])
                    after = density(closed, node, exact=True)
                    assert after > before
                    return


@settings(max_examples=60)
@given(graph=graphs())
def test_density_depends_only_on_two_hop_ball(graph):
    # Removing an edge entirely outside N^2_p leaves d_p unchanged.
    for node in graph:
        ball = graph.k_neighborhood(node, 2) | {node}
        edges = graph.edges
        for u, v in edges:
            if u not in ball and v not in ball:
                before = density(graph, node, exact=True)
                cut = Graph(nodes=graph.nodes,
                            edges=[e for e in edges if e != (u, v)])
                assert density(cut, node, exact=True) == before
                return


@settings(max_examples=60)
@given(graph=graphs())
def test_float_density_is_the_rounded_exact_fraction(graph):
    exact = all_densities(graph, exact=True)
    fast = all_densities(graph, exact=False)
    for node in graph:
        assert fast[node] == float(exact[node])


@settings(max_examples=60)
@given(graph=graphs())
def test_float_order_agrees_with_exact_order_up_to_ties(graph):
    exact = all_densities(graph, exact=True)
    fast = all_densities(graph, exact=False)
    nodes = list(graph)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if fast[u] != fast[v]:
                # Distinct floats: monotone rounding preserves the order.
                assert (fast[u] < fast[v]) == (exact[u] < exact[v])
            else:
                # A float tie can only hide an exact tie at these sizes
                # (the FLOAT_EXACT_LIMIT injectivity bound).
                assert exact[u] == exact[v]
