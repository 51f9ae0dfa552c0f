"""Shared machinery for 1-hop greedy baseline clusterings.

Lowest-ID (Baker-Ephremides) and highest-degree (Gerla-Tsai) clustering
are both instances of the same greedy rule: scan nodes in decreasing
priority; an uncovered node becomes a cluster-head and covers its
neighbors; covered non-heads then affiliate with their best adjacent head.
The result is a dominating set of heads and 1-hop clusters.

:func:`greedy_dominating_clustering` runs on the graph's CSR snapshot:
the scan order is one ``lexsort`` over the priority columns, coverage is
a boolean mask updated row slice by row slice, and the affiliation step
is one vectorized maximum over adjacent-head ranks.  Priorities must be
unique numeric scalars or equal-width tuples of them: equal keys would
make the parent choice depend on set-iteration order, which no array
layout can reproduce, so :func:`checked_tie_ids` rejects duplicate
identifiers at every baseline entry point.

The helpers :func:`greedy_heads` and :func:`affiliate` are shared with
the incremental engine (``clustering/baselines/incremental.py``), whose
scratch fallback and re-seeds run the same two kernels.
"""

import numpy as np

from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError


def greedy_dominating_clustering(graph, priority, densities=None):
    """Greedy 1-hop clustering by decreasing ``priority`` key.

    ``priority`` maps node -> comparable key (greater wins).  Returns a
    :class:`~repro.clustering.result.Clustering` whose parents point
    members directly at their head (joining trees of height <= 1).
    Raises :class:`ConfigurationError` for keys :func:`priority_columns`
    cannot lay out.
    """
    csr = graph.to_csr()
    columns = priority_columns(csr.ids, priority)
    if columns is None:
        raise ConfigurationError(
            "priorities must be unique numbers or equal-width tuples of them"
        )
    order = scan_order(columns)
    heads = greedy_heads(csr, order)
    parent_rows = affiliate(csr, heads, scan_rank(order))
    return Clustering.from_rows(graph, parent_rows, densities=densities)


def checked_tie_ids(graph, tie_ids):
    """``tie_ids`` (default: the nodes themselves), checked to cover
    exactly the graph's nodes with globally unique identifiers."""
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    if set(tie_ids) != set(graph.nodes):
        raise ConfigurationError("tie_ids must cover exactly the graph's nodes")
    if len(set(tie_ids.values())) != len(tie_ids):
        raise ConfigurationError("tie_ids must be globally unique")
    return tie_ids


def priority_columns(ids, priority):
    """Per-row numeric key columns for ``lexsort``, or ``None`` for keys
    that are not scalars or uniform-width tuples of scalars, non-numeric
    columns, or non-unique keys (see module docstring).
    """
    values = [priority[node] for node in ids]
    if not values:
        return []
    if len(set(values)) != len(values):
        return None
    first = values[0]
    if isinstance(first, tuple):
        width = len(first)
        if any(not isinstance(v, tuple) or len(v) != width for v in values):
            return None
        raw = [[v[k] for v in values] for k in range(width)]
    else:
        if any(isinstance(v, tuple) for v in values):
            return None
        raw = [values]
    columns = []
    for column in raw:
        array = np.asarray(column)
        if array.dtype.kind not in "iuf" or array.ndim != 1:
            return None
        if array.dtype.kind == "u":
            if array.size and int(array.max()) >= 2**63:
                return None
            array = array.astype(np.int64)
        columns.append(array)
    return columns


def scan_order(columns):
    """Rows in decreasing priority, ties in insertion (row) order.

    Replicates ``sorted(nodes, key=priority.get, reverse=True)`` exactly:
    Python's sort is stable, so reverse-sorting keeps equal keys in
    insertion order, which is the CSR row order.
    """
    n = len(columns[0]) if columns else 0
    keys = [np.arange(n)]
    keys.extend(-column for column in reversed(columns))
    return np.lexsort(tuple(keys))


def scan_rank(order):
    """Per-row rank under the scan order (greater = scanned earlier)."""
    n = len(order)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return rank


def greedy_heads(csr, order):
    """Boolean head mask from one covered-bitmask scan in ``order``."""
    n = len(csr)
    covered = np.zeros(n, dtype=bool)
    heads = np.zeros(n, dtype=bool)
    indptr = csr.indptr
    indices = csr.indices
    for row in order.tolist():
        if not covered[row]:
            heads[row] = True
            covered[row] = True
            start = indptr[row]
            stop = indptr[row + 1]
            covered[indices[start:stop]] = True
    return heads


def affiliate(csr, heads, rank):
    """Parent row per node: heads keep themselves, members join their
    maximum-priority adjacent head (one masked max-reduction over the
    CSR rows; every non-head is dominated by construction)."""
    n = len(csr)
    parent_rows = np.arange(n, dtype=np.int64)
    indices = csr.indices
    if not indices.size:
        return parent_rows
    indptr = csr.indptr.astype(np.int64)
    deg = np.diff(indptr)
    nonempty = deg > 0
    head_rank = np.where(heads[indices], rank[indices], -1)
    row_best = np.full(n, -1, dtype=np.int64)
    row_best[nonempty] = np.maximum.reduceat(head_rank, indptr[:-1][nonempty])
    members = ~heads & (row_best >= 0)
    rows = np.repeat(np.arange(n, dtype=np.int64), deg)
    hits = np.flatnonzero((head_rank == row_best[rows]) & members[rows])
    parent_rows[members] = indices[hits].astype(np.int64)
    return parent_rows
