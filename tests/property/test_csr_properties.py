"""CSR snapshot vs the dict-of-sets oracle on random and geometric graphs.

A graph's snapshot must be observationally identical to the adjacency an
add-edge loop builds (``tests/oracles/graph.py``): same edge sets, same
degrees, and bit-identical densities on both the float and the exact
``Fraction`` path.  Geometric cases (UDG and quasi-UDG at several radii)
exercise the bulk ``from_pair_array`` construction; hypothesis cases
exercise ``Graph(nodes, edges)``, including isolated nodes and the
1-node collapse.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.clustering.density import all_densities
from repro.graph.generators import uniform_topology
from repro.graph.graph import Graph
from repro.graph.quasi_udg import quasi_uniform_topology

from tests.oracles import triangles as triangles_oracle
from tests.oracles.graph import adjacency_of, reference_adjacency
from tests.property.strategies import graphs


def assert_csr_matches_dict(graph):
    csr = graph.to_csr()
    # Node universe and ordering.
    assert list(csr.ids) == graph.nodes
    assert len(csr) == len(graph)
    assert csr.edge_count() == graph.edge_count()
    # Degrees.
    degrees = csr.degrees()
    for node, index in csr.index_of.items():
        assert degrees[index] == graph.degree(node)
    # Neighbor sets against the add-edge loop over the same edges.
    assert adjacency_of(graph) == reference_adjacency(graph.nodes,
                                                      graph.edges)
    # Edge sets (identifier space vs index space).
    eu, ev = csr.edge_arrays()
    csr_edges = {frozenset((csr.ids[int(u)], csr.ids[int(v)]))
                 for u, v in zip(eu, ev)}
    assert csr_edges == {frozenset(edge) for edge in graph.edges}
    # Rows sorted ascending, mirror symmetry via has_edge.
    for index in range(len(csr)):
        row = csr.neighbors_of(index)
        assert list(row) == sorted(row)
        for j in row:
            assert csr.has_edge(int(j), index)
    # Densities: float and exact, bit-identical to the per-edge oracle.
    assert all_densities(graph) == triangles_oracle.all_densities(graph)
    assert (all_densities(graph, exact=True)
            == triangles_oracle.all_densities(graph, exact=True))


@settings(max_examples=60)
@given(graph=graphs())
def test_csr_matches_dict_backend_on_random_graphs(graph):
    assert_csr_matches_dict(graph)


@pytest.mark.parametrize("seed,count,radius", [
    (1, 60, 0.15), (2, 120, 0.1), (3, 200, 0.25), (4, 80, 0.02),
])
def test_csr_matches_dict_backend_on_udg(seed, count, radius):
    topo = uniform_topology(count, radius, rng=seed)
    assert_csr_matches_dict(topo.graph)


@pytest.mark.parametrize("seed,count,r_min,r_max", [
    (5, 60, 0.1, 0.2), (6, 120, 0.05, 0.1), (7, 90, 0.15, 0.15),
])
def test_csr_matches_dict_backend_on_quasi_udg(seed, count, r_min, r_max):
    topo = quasi_uniform_topology(count, r_min, r_max, rng=seed)
    assert_csr_matches_dict(topo.graph)


def test_csr_handles_isolated_nodes():
    graph = Graph(nodes=["lonely", 7], edges=[(1, 2), (2, 3)])
    assert_csr_matches_dict(graph)
    csr = graph.to_csr()
    assert csr.degrees()[csr.index_of["lonely"]] == 0
    assert all_densities(graph)["lonely"] == 0.0


def test_csr_one_node_collapse():
    graph = Graph(nodes=[42])
    assert_csr_matches_dict(graph)
    csr = graph.to_csr()
    assert len(csr) == 1
    assert csr.edge_count() == 0
    assert list(csr.triangle_counts()) == [0]


def test_csr_empty_graph():
    assert_csr_matches_dict(Graph())


def test_bulk_equals_incremental_udg_construction():
    """from_pair_array must yield the adjacency an add-edge loop over the
    sorted pair array builds, and the graph ``Graph(nodes, edges)``
    builds from the same pairs."""
    from repro.graph.geometry import pairs_within_range

    rng = np.random.default_rng(99)
    positions = rng.uniform(0.0, 1.0, size=(300, 2))
    pairs = pairs_within_range(positions, 0.1)
    bulk = Graph.from_pair_array(pairs, 300)
    assert adjacency_of(bulk) == reference_adjacency(range(300),
                                                     pairs.tolist())
    assert bulk.edges == Graph(nodes=range(300), edges=pairs.tolist()).edges


@settings(max_examples=40)
@given(graph=graphs(min_nodes=1, max_nodes=12))
def test_snapshot_survives_roundtrip_through_pairs(graph):
    """Rebuilding via from_pair_array preserves the structure exactly."""
    index_of = {node: i for i, node in enumerate(graph.nodes)}
    pairs = np.array([[index_of[u], index_of[v]] for u, v in graph.edges],
                     dtype=np.int64).reshape(-1, 2)
    rebuilt = Graph.from_pair_array(pairs, graph.nodes)
    assert set(rebuilt.nodes) == set(graph.nodes)
    assert ({frozenset(e) for e in rebuilt.edges}
            == {frozenset(e) for e in graph.edges})
    assert (all_densities(rebuilt, exact=True)
            == all_densities(graph, exact=True))
