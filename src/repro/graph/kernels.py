"""Traversal kernels on raw CSR arrays (``indptr`` / ``indices``).

Every hot traversal loop in the repo lives here: BFS frontier
expansion, the one-level distance wave that every distance sweep loops
over (label-constrained multi-source sweeps and the lazy
:class:`~repro.graph.traversal.DistanceSweep` alike), BFS parents and
their unwinding, component label propagation, and the pointer-doubling
forest resolve.
:mod:`repro.graph.traversal` applies them to CSR snapshots; the overlay
(:mod:`repro.hierarchy.overlay`) and the serving router
(:mod:`repro.workload.serve`) call them on their own arrays.

The deterministic tie-break: a row discovered at BFS level ``d``
records as parent its **first discoverer in (sorted-frontier row,
ascending CSR neighbor) order**, which equals the smallest-index
neighbor at level ``d - 1``.  Distances, component labels, forest
roots and depths are tie-break-free; parents and unwound paths rely on
that rule.
"""

import numpy as np


def _expand_frontier(indptr, indices, frontier):
    """Concatenated neighbor rows of ``frontier`` plus their source rows.

    Returns ``(neighbors, sources)`` where ``neighbors[k]`` is adjacent
    to ``sources[k]``; rows appear grouped by frontier order, each group
    in CSR (ascending) neighbor order.
    """
    starts = indptr[frontier].astype(np.int64)
    counts = indptr[frontier + 1].astype(np.int64) - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    cum = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    take = (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum[:-1], counts)
        + np.repeat(starts, counts)
    )
    return indices[take].astype(np.int64), np.repeat(frontier, counts)


def expand_distances(indptr, indices, dist, frontier, level, labels=None):
    """Grow a BFS by one level in place; returns ``(frontier, level)``.

    ``dist`` holds the distances found so far (``-1`` unreached) and
    ``frontier`` the distinct rows discovered at ``level``.  The wave
    writes ``level + 1`` into every unreached neighbor of the frontier
    and returns those rows (empty once the BFS is exhausted) with
    ``level + 1``, from which the next call resumes.  ``labels``
    constrains expansion exactly as in :func:`multi_source_distances`.
    """
    neigh, src = _expand_frontier(indptr, indices, frontier)
    keep = dist[neigh] < 0
    if labels is not None:
        keep &= labels[neigh] == labels[src]
    cand = neigh[keep]
    # One position per distinct row survives: whichever duplicate wrote
    # its stamp (negative, so the row still reads unreached) into
    # ``dist[row]`` last.  O(k) where np.unique sorts, with no scratch
    # array, and distances do not depend on frontier order.
    stamp = np.arange(-2, -2 - cand.size, -1)
    dist[cand] = stamp
    frontier = cand[dist[cand] == stamp]
    level += 1
    dist[frontier] = level
    return frontier, level


def multi_source_distances(indptr, indices, sources, labels=None):
    """Hop distances from the nearest of ``sources`` to every row.

    ``sources`` is a non-empty array of in-range row indices, all seeded
    at distance 0.  When ``labels`` (an ``int`` array, one entry per
    row) is given, an edge is traversed only if both endpoints carry the
    same label.  Unreached rows get ``-1``.
    """
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    frontier = np.unique(sources)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        frontier, level = expand_distances(
            indptr, indices, dist, frontier, level, labels=labels
        )
    return dist


#: Below this many rows, plain-Python BFS beats the vectorized loop
#: (numpy dispatch overhead dominates cluster-sized graphs); both paths
#: implement the identical parent rule and the test suite pins them to
#: each other by toggling this threshold.
SMALL_GRAPH_ROWS = 512


def _bfs_parents_small(indptr, indices, source, labels):
    """Plain-Python :func:`bfs_parents` for cluster-sized graphs.

    Identical discovery rule: the frontier is kept sorted between
    levels and each row's CSR block scans ascending, so a row's parent
    is its first discoverer in (sorted-frontier row, ascending CSR
    neighbor) order -- bit for bit what the vectorized path computes.
    """
    n = len(indptr) - 1
    ptr = indptr.tolist()
    ind = indices.tolist()
    lab = None if labels is None else np.asarray(labels).tolist()
    dist = [-1] * n
    parent = [-1] * n
    dist[source] = 0
    frontier = [int(source)]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for p in range(ptr[u], ptr[u + 1]):
                v = ind[p]
                if dist[v] < 0 and (lab is None or lab[v] == lab[u]):
                    dist[v] = level
                    parent[v] = u
                    nxt.append(v)
        nxt.sort()
        frontier = nxt
    return (np.asarray(parent, dtype=np.int64),
            np.asarray(dist, dtype=np.int64))


def bfs_parents(indptr, indices, source, labels=None):
    """Full-BFS ``(parents, distances)`` from one source row.

    ``parents[r]`` is row ``r``'s first discoverer under the
    deterministic rule above (``-1`` for the source itself and for
    unreached rows); ``distances[r]`` the hop distance (``-1``
    unreached).  ``labels`` constrains expansion exactly as in
    :func:`multi_source_distances`.
    """
    n = len(indptr) - 1
    if n <= SMALL_GRAPH_ROWS:
        return _bfs_parents_small(np.asarray(indptr), np.asarray(indices),
                                  int(source), labels)
    dist = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        level += 1
        neigh, src = _expand_frontier(indptr, indices, frontier)
        keep = dist[neigh] < 0
        if labels is not None:
            keep &= labels[neigh] == labels[src]
        cand = neigh[keep]
        if not cand.size:
            break
        # np.unique's return_index picks each row's first occurrence in
        # gather order -- the deterministic parent rule.
        frontier, first = np.unique(cand, return_index=True)
        parent[frontier] = src[keep][first]
        dist[frontier] = level
    return parent, dist


def component_labels(indptr, indices):
    """Per-row component label: the smallest row index in the component.

    Min-label propagation over the closed neighborhood, with full
    pointer-doubling compression between rounds -- O(m log n) worst
    case, a handful of vectorized rounds in practice.
    """
    n = len(indptr) - 1
    labels = np.arange(n, dtype=np.int64)
    if n == 0 or len(indices) == 0:
        return labels
    indptr = np.asarray(indptr).astype(np.int64)
    dst = np.asarray(indices).astype(np.int64)
    nonzero = np.diff(indptr) > 0
    starts = indptr[:-1][nonzero]
    while True:
        # reduceat segments between consecutive non-empty rows are
        # exactly those rows' neighbor blocks (empty rows contribute no
        # elements).
        neighbor_min = np.minimum.reduceat(labels[dst], starts)
        new = labels.copy()
        new[nonzero] = np.minimum(new[nonzero], neighbor_min)
        while True:
            shortcut = new[new]
            if np.array_equal(shortcut, new):
                break
            new = shortcut
        if np.array_equal(new, labels):
            return labels
        labels = new


def resolve_forest(parents):
    """``(roots, depths, ok)`` of a parent-pointer forest.

    ``parents[i]`` is the in-range parent row of ``i`` (roots point to
    themselves).  Pointer doubling resolves every node to its root and
    depth in O(n log h) vectorized steps.  ``ok`` is ``False`` when the
    links contain a cycle (the caller raises; roots/depths are then
    meaningless).
    """
    parents = np.ascontiguousarray(parents, dtype=np.int64)
    anc = parents.copy()
    n = anc.size
    idx = np.arange(n, dtype=np.int64)
    depth = (anc != idx).astype(np.int64)
    if n == 0:
        return anc, depth, True
    # Each round doubles the resolved chain length, so log2(n) + 1
    # rounds suffice for any forest; non-convergence within that budget
    # means the links cycle.  A cycle whose length divides a power of
    # two *does* converge (every member becomes its own 2^k-th
    # ancestor), so a converged ancestor only counts as a root if its
    # parent is itself.
    for _ in range(int(np.ceil(np.log2(max(n, 2)))) + 2):
        shortcut = anc[anc]
        if np.array_equal(shortcut, anc):
            if bool((parents[anc] == anc).all()):
                return anc, depth, True
            break
        depth += depth[anc]
        anc = shortcut
    return anc, depth, False


def unwind_path(parents, source, target):
    """Row path ``source .. target`` through a BFS parent array.

    ``parents`` must come from :func:`bfs_parents` over the same graph
    (so the chain is acyclic).  Returns an ``int64`` row array; an
    **empty** array signals a broken chain (``target`` does not unwind
    to ``source``), which callers surface as a disconnection error.
    """
    rows = [int(target)]
    source = int(source)
    while rows[-1] != source:
        parent = int(parents[rows[-1]])
        if parent < 0:
            return np.empty(0, dtype=np.int64)
        rows.append(parent)
    rows.reverse()
    return np.asarray(rows, dtype=np.int64)


def backend_info():
    """The kernel implementation, for run records: ``{"active": "numpy"}``."""
    return {"active": "numpy"}


def warm_up():
    """Prepare the kernels for timing; numpy kernels need nothing."""
