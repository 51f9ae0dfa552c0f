"""Compiled traversal kernels (``numba.njit(cache=True)``).

Drop-in replacements for :mod:`repro.graph.kernels.numpy_backend`,
written as explicit sequential loops so numba compiles them to machine
code with no per-BFS-level numpy dispatch overhead.  **Bit-identity
contract**: every function returns exactly the arrays the numpy backend
returns, enforced by the ``tests/graph/test_kernels.py`` parity suite
(run under ``REPRO_KERNELS=numba`` in the dedicated CI job).

The shared deterministic parent rule -- first discoverer in
(sorted-frontier row, ascending CSR neighbor) order -- is preserved by
keeping every BFS frontier **sorted** between levels: discoveries are
appended in (frontier, CSR) order and sorted before the next wave, so
iterating the frontier ascending and each row's CSR block ascending
visits candidate parents in the numpy backend's gather order.

Importing this module without numba installed raises ImportError; the
package ``__init__`` treats that as "backend unavailable" and falls
back to the numpy kernels.
"""

import numpy as np
from numba import njit


@njit(cache=True)
def _expand_distances(indptr, indices, dist, frontier, level, stop, labels, constrained):
    scratch = np.empty(dist.shape[0], np.int64)
    while frontier.shape[0] > 0 and (stop < 0 or dist[stop] < 0):
        level += 1
        k = 0
        for fi in range(frontier.shape[0]):
            u = frontier[fi]
            for p in range(indptr[u], indptr[u + 1]):
                v = indices[p]
                if dist[v] < 0 and (not constrained or labels[v] == labels[u]):
                    dist[v] = level
                    scratch[k] = v
                    k += 1
        frontier = scratch[:k].copy()
    return frontier, level


@njit(cache=True)
def _bfs_parents(indptr, indices, source, labels, constrained):
    n = indptr.shape[0] - 1
    dist = np.full(n, -1, np.int64)
    parent = np.full(n, -1, np.int64)
    dist[source] = 0
    frontier = np.empty(n, np.int64)
    frontier[0] = source
    fsize = 1
    scratch = np.empty(n, np.int64)
    level = 0
    while fsize > 0:
        level += 1
        k = 0
        for fi in range(fsize):
            u = frontier[fi]
            for p in range(indptr[u], indptr[u + 1]):
                v = indices[p]
                if dist[v] < 0 and (not constrained or labels[v] == labels[u]):
                    dist[v] = level
                    parent[v] = u
                    scratch[k] = v
                    k += 1
        nxt = np.sort(scratch[:k])
        for i in range(k):
            frontier[i] = nxt[i]
        fsize = k
    return parent, dist


@njit(cache=True)
def _component_labels(indptr, indices):
    n = indptr.shape[0] - 1
    labels = np.full(n, -1, np.int64)
    queue = np.empty(n, np.int64)
    for i in range(n):
        if labels[i] >= 0:
            continue
        # i is the smallest unlabeled row, hence the smallest row of its
        # component -- exactly the numpy backend's min-label fixpoint.
        labels[i] = i
        queue[0] = i
        head, tail = 0, 1
        while head < tail:
            u = queue[head]
            head += 1
            for p in range(indptr[u], indptr[u + 1]):
                v = indices[p]
                if labels[v] < 0:
                    labels[v] = i
                    queue[tail] = v
                    tail += 1
    return labels


@njit(cache=True)
def _resolve_forest(parents):
    n = parents.shape[0]
    roots = np.full(n, -1, np.int64)
    depth = np.zeros(n, np.int64)
    stack = np.empty(n, np.int64)
    for i in range(n):
        if roots[i] >= 0:
            continue
        x = i
        top = 0
        while roots[x] < 0 and parents[x] != x:
            stack[top] = x
            top += 1
            if top >= n:
                # More links than nodes on one walk: the chain revisited
                # a row, so the "forest" contains a cycle.
                return roots, depth, False
            x = parents[x]
        if roots[x] < 0:
            roots[x] = x  # a fresh root; its depth stays 0
        r = roots[x]
        d = depth[x]
        for j in range(top - 1, -1, -1):
            d += 1
            y = stack[j]
            roots[y] = r
            depth[y] = d
    return roots, depth, True


@njit(cache=True)
def _unwind_path(parents, source, target):
    n = parents.shape[0]
    buf = np.empty(n, np.int64)
    k = 0
    x = target
    while x != source:
        buf[k] = x
        k += 1
        nxt = parents[x]
        if nxt < 0 or k >= n:
            return np.empty(0, np.int64)
        x = nxt
    out = np.empty(k + 1, np.int64)
    out[0] = source
    for i in range(k):
        out[i + 1] = buf[k - 1 - i]
    return out


_NO_LABELS = np.empty(0, dtype=np.int64)


def _label_args(labels):
    if labels is None:
        return _NO_LABELS, False
    return np.ascontiguousarray(labels), True


def expand_distances(indptr, indices, dist, frontier, level, stop, labels=None):
    """Compiled :func:`~repro.graph.kernels.numpy_backend.expand_distances`."""
    frontier = np.ascontiguousarray(frontier, dtype=np.int64)
    label_array, constrained = _label_args(labels)
    return _expand_distances(
        indptr, indices, dist, frontier, int(level), int(stop), label_array, constrained
    )


def multi_source_distances(indptr, indices, sources, labels=None):
    """Compiled :func:`~repro.graph.kernels.numpy_backend.multi_source_distances`."""
    dist = np.full(len(indptr) - 1, -1, dtype=np.int64)
    frontier = np.unique(sources).astype(np.int64)
    dist[frontier] = 0
    expand_distances(indptr, indices, dist, frontier, 0, -1, labels=labels)
    return dist


def bfs_parents(indptr, indices, source, labels=None):
    """Compiled :func:`~repro.graph.kernels.numpy_backend.bfs_parents`."""
    label_array, constrained = _label_args(labels)
    return _bfs_parents(indptr, indices, int(source), label_array, constrained)


def component_labels(indptr, indices):
    """Compiled :func:`~repro.graph.kernels.numpy_backend.component_labels`."""
    return _component_labels(indptr, indices)


def resolve_forest(parents):
    """Compiled :func:`~repro.graph.kernels.numpy_backend.resolve_forest`."""
    parents = np.ascontiguousarray(parents, dtype=np.int64)
    return _resolve_forest(parents)


def unwind_path(parents, source, target):
    """Compiled :func:`~repro.graph.kernels.numpy_backend.unwind_path`."""
    return _unwind_path(parents, int(source), int(target))


def warm_up():
    """Compile every kernel on a 2-node toy graph (first-call latency).

    ``njit(cache=True)`` persists the compilation to numba's on-disk
    cache, so after one warm-up per environment the compile cost never
    lands inside a measured serving loop.
    """
    indptr = np.array([0, 1, 2], dtype=np.int32)
    indices = np.array([1, 0], dtype=np.int32)
    sources = np.array([0], dtype=np.int64)
    labels = np.zeros(2, dtype=np.int64)
    multi_source_distances(indptr, indices, sources)
    multi_source_distances(indptr, indices, sources, labels=labels)
    parents, _dist = bfs_parents(indptr, indices, 0)
    bfs_parents(indptr, indices, 0, labels=labels)
    component_labels(indptr, indices)
    resolve_forest(np.array([0, 0], dtype=np.int64))
    unwind_path(parents, 0, 1)
