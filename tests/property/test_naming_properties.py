"""Property tests: renaming invariants on arbitrary graphs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.naming.dag import dag_height, theorem1_height_bound
from repro.naming.namespace import NameSpace, recommended_size
from repro.naming.renaming import (
    PoliteRenaming,
    RandomizedRenaming,
    is_locally_unique,
)

from tests.oracles.renaming import polite_redraw_round
from tests.property.strategies import graphs


def namespace_for(graph):
    return NameSpace(recommended_size(graph.max_degree()))


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 1000))
def test_randomized_renaming_reaches_local_uniqueness(graph, seed):
    result = RandomizedRenaming(namespace=namespace_for(graph)).run(
        graph, rng=np.random.default_rng(seed))
    assert is_locally_unique(graph, result.ids)


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 1000))
def test_polite_renaming_reaches_local_uniqueness(graph, seed):
    result = PoliteRenaming(namespace=namespace_for(graph)).run(
        graph, rng=np.random.default_rng(seed))
    assert is_locally_unique(graph, result.ids)


@settings(max_examples=30, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 1000))
def test_renaming_from_adversarial_all_zero_start(graph, seed):
    initial = {node: 0 for node in graph}
    result = RandomizedRenaming(namespace=namespace_for(graph)).run(
        graph, rng=np.random.default_rng(seed), initial_ids=initial)
    assert is_locally_unique(graph, result.ids)


@settings(max_examples=30, deadline=None)
@given(graph=graphs(min_nodes=2), seed=st.integers(0, 1000))
def test_height_bound_holds(graph, seed):
    namespace = namespace_for(graph)
    result = PoliteRenaming(namespace=namespace).run(
        graph, rng=np.random.default_rng(seed))
    if graph.edge_count() == 0:
        return
    assert dag_height(graph, result.ids) <= \
        theorem1_height_bound(len(namespace))


@settings(max_examples=30, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 1000))
def test_stable_names_are_never_redrawn(graph, seed):
    rng = np.random.default_rng(seed)
    namespace = namespace_for(graph)
    first = PoliteRenaming(namespace=namespace).run(graph, rng=rng)
    second = PoliteRenaming(namespace=namespace).run(
        graph, rng=rng, initial_ids=first.ids)
    assert second.ids == first.ids
    assert second.redraw_rounds == 0


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), data=st.data(), size=st.integers(2, 5),
       lazy=st.booleans())
def test_polite_round_matches_per_node_oracle(graph, data, size, lazy):
    """Same names, same dict order and the same generator state as the
    per-node round, from names colliding in a tiny space, with tied and
    shuffled normal identifiers, on dict and CSR-only graphs."""
    nodes = graph.nodes
    ids = {node: data.draw(st.integers(0, size - 1)) for node in nodes}
    ties = data.draw(st.permutations(nodes))
    tie_ids = {node: ties[node] // data.draw(st.integers(1, 2))
               for node in nodes}
    if lazy:
        csr = graph.to_csr()
        rows, cols = csr.edge_arrays()
        graph = type(graph).from_pair_chunks([np.column_stack((rows, cols))],
                                             csr.ids)
    namespace = NameSpace(size + graph.max_degree())
    seed = data.draw(st.integers(0, 99))
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    fast = PoliteRenaming(namespace=namespace)._redraw_round(
        graph, ids, namespace, tie_ids, fast_rng)
    slow = polite_redraw_round(graph, ids, namespace, tie_ids, slow_rng)
    assert list(fast.items()) == list(slow.items())
    assert fast_rng.random() == slow_rng.random()
