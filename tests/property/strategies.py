"""Hypothesis strategies for random graphs and node views."""

from fractions import Fraction

from hypothesis import strategies as st

from repro.clustering.order import NodeView
from repro.graph.graph import Graph


@st.composite
def graphs(draw, min_nodes=1, max_nodes=16, edge_bias=0.35):
    """A random undirected graph over integer nodes ``0..n-1``."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if draw(st.booleans())
             and draw(st.floats(0, 1, allow_nan=False)) < edge_bias]
    return Graph(nodes=range(n), edges=edges)


@st.composite
def connected_graphs(draw, min_nodes=2, max_nodes=14):
    """A random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extras = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=n))
    edges += [(u, v) for u, v in extras if u != v]
    return Graph(nodes=range(n), edges=edges)


@st.composite
def node_views(draw, node=0):
    """A NodeView with small rational densities and bounded identifiers."""
    density = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 6)))
    return NodeView(
        node=node,
        density=density,
        tie_id=draw(st.integers(0, 50)),
        dag_id=draw(st.one_of(st.none(), st.integers(0, 10))),
        is_head=draw(st.booleans()),
    )
