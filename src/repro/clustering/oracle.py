"""Scratch density-driven election: the stable clustering of one graph.

The distributed protocol (``repro.protocols.clustering``) converges to a
unique fixpoint once every node's caches are accurate (Lemma 2: the
cluster-head value is deterministically determined by densities, local
topology, and the values of greater nodes).  This module computes that
fixpoint directly from a global view, which is what the paper's own
simulations measure in Tables 4 and 5 -- only the final structure matters
there, not the message schedule.

It runs on the array rules of :mod:`repro.clustering.incremental`, the
library's one election.  With the paper's orders and identifiers that
fit int64, :func:`compute_clustering` is a fresh
:class:`~repro.clustering.incremental.IncrementalElection`'s first
window: one ``lexsort`` ranks the key columns, then a CSR row argmax
picks parents and the fusion greedy visits the local maxima.  Custom
orders, other real-number identifiers (integers beyond int64, floats)
and :func:`clustering_from_keys` rank the per-node key tuples with one
sort and run the same two rules; any other identifier raises
:class:`ConfigurationError`.

The per-node fixpoint these replace (one ``max`` over neighbor key
tuples per node) is the reference in ``tests/oracles/election.py``;
hypothesis suites assert equality with it, and integration tests assert
that the protocol's stable state equals this module's output on the same
topology.
"""

from numbers import Real

import numpy as np

from repro.clustering.density import all_densities
from repro.clustering.incremental import (
    IncrementalElection,
    _previous_heads,
    _ranked_clustering,
)
from repro.clustering.order import BasicOrder, IncumbentOrder, NodeView, make_order
from repro.util.errors import ConfigurationError

_INT64 = np.iinfo(np.int64)
_INTEGER_TYPES = (int, np.integer)


def compute_clustering(graph, tie_ids=None, dag_ids=None, order="basic",
                       fusion=False, previous=None, densities=None):
    """Compute the stable clustering of ``graph``.

    Parameters
    ----------
    graph:
        The connectivity graph.
    tie_ids:
        ``dict[node, int]`` of globally unique "normal" identifiers used as
        the final tie-break; defaults to the nodes themselves (which must
        then be unique numbers).
    dag_ids:
        Optional ``dict[node, int]`` of locally unique DAG names
        (Section 4.1).  When given, these dominate ``tie_ids`` in the order.
    order:
        ``"basic"`` (Section 4.2) or ``"incumbent"`` (Section 4.3, rule 1).
    fusion:
        Apply the 2-hop fusion rule of Section 4.3 (rule 2).
    previous:
        Who currently holds headship, consulted by the incumbent order:
        either a previous :class:`~repro.clustering.result.Clustering` or a
        plain set of head nodes.
    densities:
        Precomputed exact densities of ``graph``: a mapping to
        Fractions, such as the :class:`~repro.graph.dynamic.DensityMap`
        that ``all_densities(graph, exact=True)`` returns (its float
        image is ranked without a per-node conversion); computed when
        omitted.

    Returns
    -------
    Clustering
    """
    order_obj = make_order(order) if isinstance(order, str) else order
    if densities is None:
        densities = all_densities(graph, exact=True)
    if tie_ids is None:
        tie_ids = {node: node for node in graph}

    if (type(order_obj) in (BasicOrder, IncumbentOrder)
            and _int64_ids(tie_ids)
            and (dag_ids is None or _int64_ids(dag_ids))):
        # The engine checks coverage and uniqueness (id_column).
        election = IncrementalElection(order=order_obj, fusion=fusion)
        return election.update(graph, densities, tie_ids, dag_ids=dag_ids,
                               previous=previous)

    _check_ids(graph, tie_ids, dag_ids)
    heads = _previous_heads(previous)
    keys = {
        node: order_obj.key(NodeView(
            node=node,
            density=densities[node],
            tie_id=tie_ids[node],
            dag_id=None if dag_ids is None else dag_ids[node],
            is_head=node in heads,
        ))
        for node in graph
    }
    return clustering_from_keys(graph, keys, fusion=fusion,
                                densities=densities, dag_ids=dag_ids,
                                order_name=order_obj.name)


def clustering_from_keys(graph, keys, fusion=False, densities=None,
                         dag_ids=None, order_name="custom"):
    """Clustering fixpoint under an arbitrary per-node key.

    ``keys`` maps every node to a comparable value; greater key wins.
    Keys must be *globally distinct* (append a unique identifier component
    to guarantee it).  This is the extension point used by the
    energy-aware order (``repro.energy``) and any custom metric the
    conclusion of the paper contemplates ("our contribution regarding the
    self-stabilization could be applied to several clusterization
    metrics").  One sort of the keys ranks the nodes; the election's
    array rules do the rest.
    """
    if set(keys) != set(graph.nodes):
        raise ConfigurationError("keys must cover exactly the graph's nodes")
    if len(set(keys.values())) != len(keys):
        raise ConfigurationError("keys must be globally distinct")
    row_keys = [keys[node] for node in graph.to_csr().ids]
    by_key = sorted(range(len(row_keys)), key=row_keys.__getitem__)
    ranks = np.empty(len(row_keys), dtype=np.int64)
    ranks[by_key] = np.arange(len(row_keys), dtype=np.int64)
    return _ranked_clustering(graph, ranks, fusion=fusion,
                              densities=densities, dag_ids=dag_ids,
                              order_name=order_name)


def _check_ids(graph, tie_ids, dag_ids):
    """The identifier rules of the key-tuple path: real numbers (such as
    integers beyond int64) covering the graph's nodes, tie identifiers
    globally unique."""
    nodes = set(graph.nodes)
    for name, ids in (("tie_ids", tie_ids), ("dag_ids", dag_ids)):
        if ids is None:
            continue
        if set(ids) != nodes:
            raise ConfigurationError(
                f"{name} must cover exactly the graph's nodes")
        if not all(isinstance(value, Real) for value in ids.values()):
            raise ConfigurationError(f"{name} must be real numbers")
    if len(set(tie_ids.values())) != len(tie_ids):
        raise ConfigurationError("tie_ids must be globally unique")


def _int64_ids(ids):
    """True iff every identifier is an integer that the engine's negated
    int64 key columns hold exactly.

    The integer check reads the set of value types, built at C level;
    ``min`` and ``max`` bound the values.
    """
    values = ids.values()
    kinds = set(map(type, values))
    if not all(issubclass(kind, _INTEGER_TYPES) for kind in kinds):
        return False
    return not values or (_INT64.min < min(values)
                          and max(values) <= _INT64.max)
