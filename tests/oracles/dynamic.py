"""Triangle-delta oracle: membership by search over the sorted edge keys.

:func:`repro.graph.dynamic.triangle_credits` answers its two questions
per candidate corner -- does ``(b, w)`` close a triangle, and did
``(a, w)`` / ``(b, w)`` change -- by distance: a unit-disk snapshot's
pairs are edges iff they are within range under its positions, and a
changed edge is out of range under the other snapshot's.  This is the
graph-only definition it must equal on unit-disk snapshots: membership
is one ``searchsorted`` over the snapshot's sorted edge keys ``row * n +
col`` (CSR order is key order), and "changed" is a flag set on the
changed edges' own CSR entries.  It needs no geometry, so it
also runs on arbitrary graphs.
"""

import numpy as np

from repro.graph.dynamic import _CANDIDATE_BUDGET


def triangle_credits(csr, lo, hi):
    """Per-row corner counts of ``csr``'s triangles through changed edges.

    ``lo`` / ``hi`` are the changed edges as row pairs (``lo < hi``), all
    present in ``csr``.  Each edge expands its endpoint with the shorter
    neighbor list; a candidate corner ``w`` closes a triangle iff the
    other endpoint and ``w`` are adjacent -- one ``searchsorted`` over
    the sorted edge keys, which also locates that edge's CSR entry.  A
    triangle holding several changed edges is credited once, through the
    changed edge with the smallest key ``lo * n + hi``, to each of its
    three corners.
    """
    n = len(csr)
    credits = np.zeros(n, dtype=np.int64)
    if not lo.size:
        return credits
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    table = np.repeat(np.arange(n, dtype=np.int64), csr.degrees()) * n \
        + csr.indices
    changed = np.zeros(table.size, dtype=bool)
    changed[np.searchsorted(table, lo * n + hi)] = True
    changed[np.searchsorted(table, hi * n + lo)] = True
    indptr = csr.indptr.astype(np.int64)
    degrees = csr.degrees()
    swap = degrees[hi] < degrees[lo]
    expand = np.where(swap, hi, lo)
    probe_row = np.where(swap, lo, hi)
    counts = degrees[expand]
    ends = np.cumsum(counts)
    last = table.size - 1
    start = 0
    while start < lo.size:
        base = int(ends[start] - counts[start])
        stop = max(int(np.searchsorted(ends, base + _CANDIDATE_BUDGET,
                                       side="right")), start + 1)
        size = counts[start:stop]
        total = int(size.sum())
        if total:
            edge = np.repeat(np.arange(start, stop), size)
            # CSR entry of (expand, w) for every candidate corner w.
            at = (np.repeat(indptr[expand[start:stop]], size)
                  + np.arange(total, dtype=np.int64)
                  - np.repeat(ends[start:stop] - size - base, size))
            w = csr.indices[at].astype(np.int64)
            probe = probe_row[edge] * n + w
            pos = np.minimum(np.searchsorted(table, probe), last)
            closed = np.flatnonzero(table[pos] == probe)
            edge = edge[closed]
            w = w[closed]
            key = lo[edge] * n + hi[edge]
            a = expand[edge]
            b = probe_row[edge]
            earlier = ((changed[at[closed]]
                        & (np.minimum(a, w) * n + np.maximum(a, w) < key))
                       | (changed[pos[closed]]
                          & (np.minimum(b, w) * n + np.maximum(b, w) < key)))
            first = ~earlier
            corners = np.concatenate((a[first], b[first], w[first]))
            credits += np.bincount(corners, minlength=n)
        start = stop
    return credits


def row_pairs(ids, pairs):
    """Identifier pairs -> canonical row columns ``(lo, hi)``, ``lo <
    hi``, over the snapshot row order ``ids``."""
    ids = np.asarray(ids, dtype=np.int64)
    sorter = np.argsort(ids, kind="stable")
    rows = sorter[np.searchsorted(ids, pairs, sorter=sorter)].reshape(-1, 2)
    return (np.minimum(rows[:, 0], rows[:, 1]),
            np.maximum(rows[:, 0], rows[:, 1]))
