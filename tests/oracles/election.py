"""Election oracle: the per-node fixpoint of Sections 4.2 and 4.3.

:func:`repro.clustering.oracle.compute_clustering` elects with the array
rules of :mod:`repro.clustering.incremental` (one lexsort of the key
columns, a CSR row argmax, the fusion greedy over local maxima).  This
is the definition those rules must equal: every node builds its ``≺``
key tuple (:mod:`repro.clustering.order`) and takes one ``max`` over its
neighbors' keys through the per-node head rules below, with exact
Fraction densities throughout.

The head rules are the *local* ``clusterHead`` functions of Section 4,
stated per node over a node's view of its neighborhood::

    clusterHead = Id_p                     if  forall q in Np:  q ≺ p
                  H(max≺ {q in Np})        otherwise

The fusion rule (Section 4.3) strengthens the self-election condition:
``p`` must also dominate every node in its 2-neighborhood that currently
claims to be a cluster-head.  Only local maxima claim headship and no
two of them are adjacent, so ``_fusion_adjust`` in
:mod:`repro.clustering.incremental` checks the condition against the
maxima that share a neighbor with ``p``; the rules here take the whole
2-neighborhood, as the paper states them.
"""

import numpy as np

from repro.clustering.density import all_densities
from repro.clustering.oracle import _check_ids
from repro.clustering.order import NodeView, make_order
from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError


def compute_clustering(graph, tie_ids=None, dag_ids=None, order="basic",
                       fusion=False, previous=None, densities=None):
    """The stable clustering of ``graph``, node by node.

    Same parameters and result as
    :func:`repro.clustering.oracle.compute_clustering`.
    """
    order_obj = make_order(order) if isinstance(order, str) else order
    if densities is None:
        densities = all_densities(graph, exact=True)
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    _check_ids(graph, tie_ids, dag_ids)

    keys = _node_keys(graph, densities, tie_ids, dag_ids, order_obj, previous)
    return clustering_from_keys(graph, keys, fusion=fusion,
                                densities=densities, dag_ids=dag_ids,
                                order_name=order_obj.name)


def is_local_max(key_p, neighbor_keys):
    """True iff every neighbor precedes ``p`` (``forall q in Np: q ≺ p``).

    A node with no neighbors is vacuously a local maximum (isolated nodes
    elect themselves, DESIGN.md deviation 2).
    """
    return all(key_q < key_p for key_q in neighbor_keys)


def best_neighbor(neighbor_keys_by_node):
    """``max≺ {q in Np}``: the neighbor with the greatest key.

    ``neighbor_keys_by_node`` maps neighbor -> key and must be non-empty.
    """
    return max(neighbor_keys_by_node, key=neighbor_keys_by_node.get)


def choose_parent(node, key_p, neighbor_keys_by_node):
    """``F(p)``: the node itself when locally maximal, else its best neighbor."""
    if is_local_max(key_p, neighbor_keys_by_node.values()):
        return node
    return best_neighbor(neighbor_keys_by_node)


def dominates_two_hop_heads(key_p, claimed_head_keys):
    """The extra fusion condition of Section 4.3.

    ``claimed_head_keys`` are the keys of every node ``q`` in ``N2_p`` (the
    2-neighborhood, ``p`` excluded) with ``H(q) = Id_q``, i.e. nodes that
    currently claim cluster-head status.  ``p`` may elect itself only if it
    dominates all of them.
    """
    return all(key_q < key_p for key_q in claimed_head_keys)


def wants_headship(key_p, neighbor_keys, claimed_two_hop_head_keys=None):
    """Full self-election test: local maximality plus (optionally) fusion.

    Pass ``claimed_two_hop_head_keys=None`` for the basic rule of §4.2 and a
    (possibly empty) iterable for the fusion rule of §4.3.
    """
    if not is_local_max(key_p, neighbor_keys):
        return False
    if claimed_two_hop_head_keys is None:
        return True
    return dominates_two_hop_heads(key_p, claimed_two_hop_head_keys)


def int64_ids(ids):
    """:func:`repro.clustering.oracle._int64_ids` value by value: True
    iff every identifier is an ``int`` or ``np.integer`` strictly above
    int64's minimum and at most its maximum."""
    values = ids.values()
    if not all(isinstance(value, (int, np.integer)) for value in values):
        return False
    bounds = np.iinfo(np.int64)
    return not values or (bounds.min < min(values)
                          and max(values) <= bounds.max)


def clustering_from_keys(graph, keys, fusion=False, densities=None,
                         dag_ids=None, order_name="custom"):
    """The fixpoint under arbitrary globally distinct per-node keys."""
    if set(keys) != set(graph.nodes):
        raise ConfigurationError("keys must cover exactly the graph's nodes")
    if len(set(keys.values())) != len(keys):
        raise ConfigurationError("keys must be globally distinct")
    if fusion:
        parents = _parents_with_fusion(graph, keys)
    else:
        parents = _parents_basic(graph, keys)
    return Clustering(graph, parents, densities=densities, dag_ids=dag_ids,
                      order_name=order_name, fusion=fusion)


def _node_keys(graph, densities, tie_ids, dag_ids, order_obj, previous):
    keys = {}
    for node in graph:
        was_head = _was_head(previous, node)
        view = NodeView(
            node=node,
            density=densities[node],
            tie_id=tie_ids[node],
            dag_id=None if dag_ids is None else dag_ids[node],
            is_head=was_head,
        )
        keys[node] = order_obj.key(view)
    return keys


def _was_head(previous, node):
    if previous is None:
        return False
    if isinstance(previous, (set, frozenset)):
        return node in previous
    return node in previous.head_of and previous.is_head(node)


def _parents_basic(graph, keys):
    """F(p) = p if p is a 1-hop local maximum, else max≺ Np."""
    parents = {}
    for node in graph:
        neighbor_keys = {q: keys[q] for q in graph.neighbors(node)}
        parents[node] = choose_parent(node, keys[node], neighbor_keys)
    return parents


def _parents_with_fusion(graph, keys):
    """Fusion rule: surviving heads form a 2-hop independent set.

    The literal guard of Section 4.3 ("every node in my 2-neighborhood that
    currently claims headship precedes me") is self-referential through the
    evolving ``H`` values; its stable outcomes are exactly the
    greedy-by-decreasing-key resolutions: a local maximum keeps headship iff
    no already-confirmed head with a greater key sits within 2 hops.  A
    deposed local maximum joins the strongest common neighbor it shares with
    its strongest dominating head, which merges its cluster into the
    dominator's (the "fusion" the paper describes) and keeps parent chains
    acyclic.
    """
    local_maxima = {node for node in graph
                    if is_local_max(keys[node],
                                    (keys[q] for q in graph.neighbors(node)))}
    confirmed = set()
    for node in sorted(local_maxima, key=keys.get, reverse=True):
        two_hop = graph.k_neighborhood(node, 2)
        if not any(other in confirmed and keys[other] > keys[node]
                   for other in two_hop):
            confirmed.add(node)

    parents = {}
    for node in graph:
        neighbor_keys = {q: keys[q] for q in graph.neighbors(node)}
        if node in confirmed:
            parents[node] = node
        elif node in local_maxima:
            parents[node] = _fusion_parent(graph, keys, node, confirmed)
        elif neighbor_keys:
            parents[node] = max(neighbor_keys, key=neighbor_keys.get)
        else:
            # Isolated node that somehow was not a local maximum: impossible,
            # is_local_max is vacuously true; guard kept for clarity.
            parents[node] = node
    return parents


def _fusion_parent(graph, keys, deposed, confirmed):
    """Parent of a deposed local maximum: strongest common neighbor shared
    with its strongest confirmed dominator within 2 hops."""
    two_hop = graph.k_neighborhood(deposed, 2)
    dominators = [h for h in two_hop if h in confirmed and keys[h] > keys[deposed]]
    dominator = max(dominators, key=keys.get)
    common = graph.neighbors(deposed) & graph.closed_neighbors(dominator)
    return max(common, key=keys.get)
