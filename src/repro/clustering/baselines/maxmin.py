"""Max-Min d-cluster formation (Amis, Prakash, Vuong, Huynh, INFOCOM 2000).

The third comparator of the paper ([1] in its references): clusters of
radius at most ``d`` hops built by ``2d`` rounds of local flooding.

Algorithm (per the original paper):

1. **Floodmax** (``d`` rounds): every node repeatedly adopts the largest
   identifier heard in its closed neighborhood, logging the winner of each
   round.
2. **Floodmin** (``d`` rounds): starting from the floodmax result, every
   node repeatedly adopts the *smallest* identifier heard, again logging
   winners.
3. Each node then selects its cluster-head:

   * Rule 1 -- if the node's own identifier appears among its floodmin
     round winners, it is a cluster-head;
   * Rule 2 -- else, among *node pairs* (identifiers appearing in both its
     floodmax and floodmin logs) pick the minimum;
   * Rule 3 -- else, pick the floodmax winner of the final round.

Membership is the set of nodes that selected a given head.  A node whose
selected head is unreachable through same-cluster nodes (a known max-min
artifact on sparse graphs) falls back to electing itself; this keeps the
result a valid connected clustering and is called out in DESIGN.md.

This module holds the array kernels on the CSR snapshot: the flood logs
are ``(d, n)`` arrays filled by per-round ``maximum``/``minimum``
reductions over closed neighborhoods (:func:`flood_logs`), head
selection is one array pass over the logs (:func:`select_head_ids`),
and the per-cluster joining trees come from one label-constrained
multi-source BFS (:func:`cluster_parent_rows`).  The engine
(``clustering/baselines/incremental.py``) seeds with them, repairs the
same logs and reruns the same selection on the rows a delta dirties;
:func:`~repro.clustering.baselines.maxmin_clustering` is its first
window.
"""

import numpy as np

from repro.graph.traversal import csr_multi_source_distances

#: Sentinel at or above every identifier (identifiers are int64).
NO_ID = np.iinfo(np.int64).max


def flood_logs(csr, tie, d):
    """The floodmax and floodmin round logs as ``(d, n)`` int64 arrays."""
    max_log = np.empty((d, len(csr)), dtype=np.int64)
    current = tie
    for r in range(d):
        current = closed_neighborhood_reduce(csr, current, np.maximum)
        max_log[r] = current
    min_log = np.empty_like(max_log)
    current = max_log[d - 1]
    for r in range(d):
        current = closed_neighborhood_reduce(csr, current, np.minimum)
        min_log[r] = current
    return max_log, min_log


def closed_neighborhood_reduce(csr, values, ufunc):
    """One synchronous flooding round: ``ufunc`` over closed neighborhoods."""
    result = values.copy()
    indices = csr.indices
    if indices.size:
        indptr = csr.indptr.astype(np.int64)
        nonempty = np.diff(indptr) > 0
        reduced = ufunc.reduceat(values[indices], indptr[:-1][nonempty])
        result[nonempty] = ufunc(result[nonempty], reduced)
    return result


def select_head_ids(tie, max_log, min_log, rows=None):
    """Per-node selected head identifier from the round logs (rules 1-3).

    ``rows`` restricts the pass to a row subset (the incremental engine's
    dirty set); the returned array then aligns with ``rows``.
    """
    if rows is not None:
        tie = tie[rows]
        max_log = max_log[:, rows]
        min_log = min_log[:, rows]
    rule1 = (min_log == tie).any(axis=0)
    in_both = (max_log[:, None, :] == min_log[None, :, :]).any(axis=1)
    pair_min = np.where(in_both, max_log, NO_ID).min(axis=0)
    has_pair = in_both.any(axis=0)
    return np.where(rule1, tie, np.where(has_pair, pair_min, max_log[-1]))


def rows_of_ids(tie, id_values):
    """Rows carrying the given identifier values (identifiers unique)."""
    order = np.argsort(tie, kind="stable")
    return order[np.searchsorted(tie[order], id_values)]


def cluster_parent_rows(csr, tie, labels, parent_rows=None, active=None):
    """Joining-forest parent rows from the per-row cluster labels.

    Within each cluster, parents follow BFS trees rooted at the head over
    the cluster-induced subgraph (ties broken by smaller identifier);
    members disconnected from their head inside the cluster become
    singleton heads (see module docstring).  All per-cluster trees come
    from one label-constrained multi-source sweep on the CSR snapshot
    (`repro.graph.traversal`): every head seeds a wave that expands only
    along same-cluster edges, which yields the induced-subgraph distances
    without ever building a subgraph.  The parent choice (the
    minimum-identifier neighbor one hop closer to the head) is one masked
    min-reduction over the CSR rows.

    ``active`` (a boolean row mask) restricts the sweep to the clusters
    it marks: rows outside keep their entry from ``parent_rows``
    (required alongside ``active``); rows inside are recomputed exactly
    as the full sweep would.
    """
    n = len(csr)
    rows = np.arange(n, dtype=np.int64)
    if active is None:
        sweep_labels = labels
        parent_rows = rows.copy()
    else:
        sweep_labels = np.where(active, labels, -1)
        parent_rows = parent_rows.copy()
    sources = np.flatnonzero(sweep_labels == rows)
    dist = csr_multi_source_distances(csr, sources, labels=sweep_labels)
    in_scope = sweep_labels >= 0
    own = in_scope & ((sweep_labels == rows) | (dist < 0))
    parent_rows[own] = rows[own]
    join = in_scope & ~own
    if not join.any():
        return parent_rows
    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices
    deg = np.diff(indptr)
    repeated = np.repeat(rows, deg)
    same_label = sweep_labels[indices] == sweep_labels[repeated]
    closer = same_label & (dist[indices] == dist[repeated] - 1)
    nbr_tie = np.where(closer, tie[indices], NO_ID)
    nonempty = deg > 0
    row_best = np.full(n, NO_ID, dtype=np.int64)
    row_best[nonempty] = np.minimum.reduceat(nbr_tie, indptr[:-1][nonempty])
    hits = np.flatnonzero(closer & (nbr_tie == row_best[repeated]) & join[repeated])
    parent_rows[join] = indices[hits].astype(np.int64)
    return parent_rows
