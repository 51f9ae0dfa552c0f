"""Array kernels of the 1-hop greedy baseline clusterings.

Lowest-ID (Baker-Ephremides) and highest-degree (Gerla-Tsai) clustering
are both instances of the same greedy rule: scan nodes in decreasing
priority; an uncovered node becomes a cluster-head and covers its
neighbors; covered non-heads then affiliate with their best adjacent head.
The result is a dominating set of heads and 1-hop clusters.

Both run on the graph's CSR snapshot: :func:`greedy_heads` is one scan
in priority order with a covered bitmask, updated row slice by row
slice, and :func:`affiliate` is one vectorized maximum over
adjacent-head ranks.  The greedy engine
(``clustering/baselines/incremental.py``) runs them whenever it seeds
or falls back to scratch, and its repair path must reproduce them.
"""

import numpy as np


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
