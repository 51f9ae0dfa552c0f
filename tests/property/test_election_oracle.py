"""The scratch election and the name sampler against their oracles.

``compute_clustering`` and ``clustering_from_keys`` rank the nodes once
(a lexsort of the key columns, or one sort of the key tuples) and run
the array parent and fusion rules; ``tests/oracles/election.py`` is the
per-node fixpoint they must equal.  ``NameSpace.sample`` walks its
sorted exclusions; ``tests/oracles/namespace.py`` scans the name space.
"""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.clustering.incremental as incremental
from repro.clustering.density import all_densities
from repro.clustering.oracle import clustering_from_keys, compute_clustering
from repro.clustering.order import BasicOrder
from repro.energy.battery import BatteryModel
from repro.energy.policy import energy_keys
from repro.graph.geometry import unit_disk_graph
from repro.graph.graph import Graph
from repro.naming.namespace import NameSpace
from repro.util.errors import ConfigurationError
from tests.oracles import election, namespace
from tests.property.strategies import graphs


class LargerIdWins(BasicOrder):
    """A custom order: density first, then the *larger* identifier."""

    name = "larger-id"

    def key(self, view):
        return (view.density, view.tie_id)


def assert_same_election(got, want):
    assert got.parents == want.parents
    assert list(got.parents) == list(want.parents)
    assert got.heads == want.heads
    assert got.head_of == want.head_of
    assert got.densities == want.densities
    assert got.order_name == want.order_name
    assert got.fusion == want.fusion


def complete_graph(n):
    return Graph(nodes=range(n),
                 edges=[(u, v) for u in range(n) for v in range(u + 1, n)])


def grid_graph(rows, cols, diagonals):
    """A rows x cols grid, 4-neighbour or (with diagonals) 8-neighbour."""
    steps = [(0, 1), (1, 0)] + ([(1, 1), (1, -1)] if diagonals else [])
    return Graph(nodes=range(rows * cols), edges=[
        (r * cols + c, (r + dr) * cols + c + dc)
        for r in range(rows) for c in range(cols) for dr, dc in steps
        if 0 <= r + dr < rows and 0 <= c + dc < cols])


shaped_graphs = st.one_of(
    st.just(Graph()),
    st.just(Graph(nodes=[0])),
    st.integers(2, 9).map(lambda n: Graph(nodes=range(n))),
    st.integers(2, 8).map(complete_graph),
    st.builds(grid_graph, st.integers(1, 5), st.integers(1, 5),
              st.booleans()),
    graphs(min_nodes=0, max_nodes=16),
)


@st.composite
def elections(draw):
    """A graph and every ``compute_clustering`` argument around it."""
    graph = draw(shaped_graphs)
    nodes = list(graph)
    n = len(nodes)
    # Distinct tie identifiers in a drawn order; besides small ints, the
    # non-int64 kinds exercise the key-sort path.
    kind = draw(st.sampled_from(["int", "negative", "float", "huge"]))
    perm = draw(st.permutations(range(n)))
    scale = {"int": 1, "negative": -3, "float": 1.5, "huge": 2**64}[kind]
    tie_ids = {node: rank * scale for node, rank in zip(nodes, perm)}
    dag_ids = None
    if draw(st.booleans()):  # locally unique or not: duplicates allowed
        dag_ids = {node: draw(st.integers(0, 4)) for node in nodes}
    order = draw(st.sampled_from(["basic", "incumbent", LargerIdWins()]))
    fusion = draw(st.booleans())
    previous_kind = draw(st.sampled_from(["none", "set", "clustering"]))
    previous = None
    if previous_kind == "set":
        previous = {node for node in nodes if draw(st.booleans())}
    elif previous_kind == "clustering":
        previous = election.compute_clustering(graph, tie_ids=tie_ids)
    return graph, dict(tie_ids=tie_ids, dag_ids=dag_ids, order=order,
                       fusion=fusion, previous=previous)


@settings(max_examples=300, deadline=None)
@given(case=elections())
def test_compute_clustering_equals_per_node_fixpoint(case):
    graph, options = case
    assert_same_election(compute_clustering(graph, **options),
                         election.compute_clustering(graph, **options))


@pytest.mark.parametrize("order,fusion", [
    ("basic", False), ("basic", True),
    ("incumbent", False), ("incumbent", True),
])
def test_refinement_column_equals_oracle(monkeypatch, order, fusion):
    # Limit 10 forces the exact refinement column onto a graph full of
    # float ties between equal Fractions.
    monkeypatch.setattr(incremental, "FLOAT_RANK_LIMIT", 10)
    positions = np.random.default_rng(7).uniform(0, 1, size=(220, 2))
    graph, _ = unit_disk_graph(positions, 0.15)
    heads = set(list(graph)[::5])
    for previous in (None, heads):
        options = dict(order=order, fusion=fusion, previous=previous)
        assert_same_election(compute_clustering(graph, **options),
                             election.compute_clustering(graph, **options))


def test_distinct_fractions_sharing_a_float_equal_oracle(monkeypatch):
    # Both densities round to float 1.0 but differ exactly: only the
    # refinement column orders them, against the tie identifiers.
    monkeypatch.setattr(incremental, "FLOAT_RANK_LIMIT", 2)
    graph = Graph(nodes=range(4), edges=[(0, 1), (1, 2), (2, 3)])
    densities = {0: Fraction(1), 1: Fraction(2**53 + 1, 2**53),
                 2: Fraction(2), 3: Fraction(2)}
    assert float(densities[0]) == float(densities[1])
    got = compute_clustering(graph, densities=densities)
    assert_same_election(got, election.compute_clustering(
        graph, densities=densities))
    assert got.parent(0) == 1


@st.composite
def shared_neighbor_keys(draw):
    """A unit-disk graph and distinct keys under which two local maxima
    share a neighbor.

    ``a`` and ``b`` are two non-adjacent neighbors of one row; they take
    the two greatest keys, so both are local maxima two hops apart, and
    the other rows take a random permutation of the rest.
    """
    n = draw(st.integers(6, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    radius = draw(st.floats(0.1, 0.45))
    positions = np.random.default_rng(seed).uniform(0, 1, size=(n, 2))
    graph, _ = unit_disk_graph(positions, radius)
    apart = [(a, b) for v in graph
             for a, b in combinations(sorted(graph.neighbors(v)), 2)
             if b not in graph.neighbors(a)]
    assume(apart)
    a, b = draw(st.sampled_from(apart))
    rest = [node for node in graph if node not in (a, b)]
    keys = dict(zip(rest, draw(st.permutations(range(len(rest))))))
    top = draw(st.permutations([n - 2, n - 1]))
    keys[a], keys[b] = top
    return graph, keys


@settings(max_examples=150, deadline=None)
@given(case=shared_neighbor_keys())
def test_fusion_deposes_maxima_that_share_a_neighbor(case):
    """The fusion rule on maxima two hops apart: the election equals
    the oracle's, and a maximum is deposed in every case, so each one
    joins through a common neighbor of its dominator."""
    graph, keys = case
    got = clustering_from_keys(graph, keys, fusion=True)
    assert_same_election(got, election.clustering_from_keys(graph, keys,
                                                            fusion=True))
    maxima = {node for node in graph
              if all(keys[q] < keys[node] for q in graph.neighbors(node))}
    assert maxima - got.heads


@settings(max_examples=100, deadline=None)
@given(graph=graphs(min_nodes=0, max_nodes=16),
       levels=st.lists(st.floats(0, 100), min_size=16, max_size=16),
       use_dag=st.booleans(), fusion=st.booleans())
def test_clustering_from_energy_keys_equals_oracle(graph, levels, use_dag,
                                                   fusion):
    battery = BatteryModel(graph.nodes)
    for node, level in zip(graph, levels):
        battery.energy[node] = level
    tie_ids = {node: node for node in graph}
    dag_ids = {node: node % 3 for node in graph} if use_dag else None
    keys = energy_keys(graph, battery, tie_ids, dag_ids=dag_ids)
    options = dict(fusion=fusion, densities=all_densities(graph, exact=True),
                   dag_ids=dag_ids, order_name="energy-aware")
    assert_same_election(clustering_from_keys(graph, keys, **options),
                         election.clustering_from_keys(graph, keys, **options))


exclusions = st.lists(st.one_of(st.integers(-3, 70), st.just("2")),
                      max_size=40)


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 64), exclude=exclusions, seed=st.integers(0, 2**32))
def test_name_draw_equals_scan_oracle(size, exclude, seed):
    space = NameSpace(size)
    fast_rng = np.random.default_rng(seed)
    scan_rng = np.random.default_rng(seed)
    try:
        want = namespace.sample(space, scan_rng, exclude=exclude)
    except ConfigurationError:
        with pytest.raises(ConfigurationError):
            space.sample(fast_rng, exclude=exclude)
    else:
        assert space.sample(fast_rng, exclude=exclude) == want
    # Both consumed the generator identically: the next draw agrees.
    assert fast_rng.integers(2**62) == scan_rng.integers(2**62)
