"""Array-frontier traversals over :class:`~repro.graph.csr.CSRAdjacency`.

Every headline metric of the paper is hop-based -- head eccentricity
``e(H(u)/C)``, joining-tree length, route stretch -- and all of them are
traversal-shaped.  This module is the shared *public* kernel surface
those metrics ride; the hot loops themselves are the array kernels of
:mod:`repro.graph.kernels`.  What remains here is the id/row plumbing
and the error contract:

* :func:`csr_bfs_distances` -- single-source BFS returning an ``int64``
  distance array (``-1`` marks unreachable rows);
* :class:`DistanceSweep` -- the same BFS grown lazily for point
  lookups: a row the sweep already reached is one read, and any other
  lookup meets in the middle, growing the cached sweep and a throwaway
  sweep from the asked row one level at a time until they touch;
* :func:`csr_multi_source_distances` -- the batched form: any number of
  sources expand simultaneously, and an optional per-row ``labels`` array
  constrains expansion to label-matching edges.  Seeding every
  cluster-head with its cluster's label computes *all* per-cluster head
  eccentricities in one sweep over the whole graph, with no induced
  subgraphs ever built (distances inside a label region equal distances
  in the region-induced subgraph, because every traversed edge has both
  endpoints in the region);
* :func:`csr_bfs_parents` / :func:`csr_shortest_path` -- deterministic
  parent trees and single shortest paths (first discovery in
  sorted-frontier-row/CSR order);
* :func:`csr_component_labels` -- connected components by min-label
  propagation;
* :func:`resolve_forest` -- parent-pointer forests (the joining forest of
  a clustering) resolved to per-node roots and depths.

Distances, component partitions, roots and depths are all tie-break-free
quantities, and parents follow the one rule stated in
:mod:`repro.graph.kernels`, so every number the callers in
``graph/paths.py``, ``clustering/result.py`` and ``hierarchy/routing.py``
report is a function of the graph alone.
"""

import numpy as np

from repro.graph import kernels
from repro.util.errors import TopologyError


def csr_multi_source_distances(csr, sources, labels=None):
    """Hop distances from the nearest of ``sources`` to every row.

    ``sources`` is an array of row indices, all seeded at distance 0.
    When ``labels`` (an ``int`` array, one entry per row) is given, an
    edge is traversed only if both endpoints carry the same label, so
    each source's wave stays inside its own label region.  Unreached rows
    get ``-1``.
    """
    n = len(csr)
    sources = np.asarray(sources, dtype=np.int64)
    if n == 0 or sources.size == 0:
        return np.full(n, -1, dtype=np.int64)
    if int(sources.min()) < 0 or int(sources.max()) >= n:
        raise TopologyError(f"source rows out of range [0, {n})")
    return kernels.multi_source_distances(csr.indptr, csr.indices, sources,
                                          labels=labels)


def csr_bfs_distances(csr, source):
    """Single-source hop distances; ``-1`` marks unreachable rows."""
    n = len(csr)
    if not 0 <= source < n:
        raise TopologyError(f"source row {source} out of range [0, {n})")
    return csr_multi_source_distances(csr, np.array([source], dtype=np.int64))


class DistanceSweep:
    """One source's BFS, grown only as far as lookups need.

    ``dist`` holds the distances found so far (``-1`` for rows not yet
    reached or unreachable).  The sweep grows whole BFS levels, so
    ``dist`` equals :func:`csr_bfs_distances` on every row up to its
    deepest level.  A lookup of a row already reached is one read, and
    an exhausted sweep answers ``-1`` for every other row.  Any other
    lookup meets in the middle: a throwaway sweep from the row and this
    sweep each grow one level at a time
    (:func:`~repro.graph.kernels.expand_distances`), smaller frontier
    first, until a wave reaches a row the other side holds.  The two
    balls shared no row before that wave, so the distance is the sum of
    the two sides' levels; an emptied frontier means unreachable.  Such
    a lookup grows about two half-radius balls instead of one full
    ball, and this sweep keeps every level it grew for later lookups.
    The throwaway side never grows deeper than this sweep, so every
    lookup leaves this sweep at least half way to its row, and a
    destination looked up again and again grows its own sweep instead
    of rebuilding throwaway balls.  Distances are tie-break-free, so
    every answer equals :func:`csr_bfs_distances`.
    """

    __slots__ = ("dist", "_indptr", "_indices", "_frontier", "_level")

    def __init__(self, csr, source):
        n = len(csr)
        if not 0 <= source < n:
            raise TopologyError(f"source row {source} out of range [0, {n})")
        self._indptr, self._indices = csr.indptr, csr.indices
        self.dist = np.full(n, -1, dtype=np.int64)
        self.dist[source] = 0
        self._frontier = np.array([source], dtype=np.int64)
        self._level = 0

    def distance(self, row):
        """Hop distance from the source to ``row``; ``-1`` unreachable."""
        dist = self.dist
        if not 0 <= row < len(dist):
            raise TopologyError(f"row {row} out of range [0, {len(dist)})")
        hops = int(dist[row])
        if hops >= 0 or not self._frontier.size:
            return hops
        indptr, indices = self._indptr, self._indices
        near = np.full(len(dist), -1, dtype=np.int64)
        near[row] = 0
        frontier, level = np.array([row], dtype=np.int64), 0
        while True:
            if self._frontier.size <= frontier.size or level >= self._level:
                self._frontier, self._level = kernels.expand_distances(
                    indptr, indices, dist, self._frontier, self._level)
                wave, other = self._frontier, near
            else:
                frontier, level = kernels.expand_distances(
                    indptr, indices, near, frontier, level)
                wave, other = frontier, dist
            if not wave.size:
                return -1
            if bool((other[wave] >= 0).any()):
                return self._level + level


def csr_shortest_path(csr, source, target, labels=None):
    """One shortest row path from ``source`` to ``target``, or ``None``.

    When ``labels`` is given the path is constrained to rows carrying
    ``labels[source]`` (the cluster-internal legs of hierarchical
    routing).  The parent of a newly discovered row is its first
    discoverer in (frontier row, CSR neighbor) order, which makes the
    returned path deterministic; any choice yields the same length.
    """
    n = len(csr)
    if not (0 <= source < n and 0 <= target < n):
        raise TopologyError("endpoints must be in the graph")
    if source == target:
        return [source]
    if labels is not None and labels[source] != labels[target]:
        return None
    parents, dist = kernels.bfs_parents(csr.indptr, csr.indices, source,
                                        labels=labels)
    if dist[target] < 0:
        return None
    rows = kernels.unwind_path(parents, source, target)
    return [int(row) for row in rows]


def csr_bfs_parents(csr, source, labels=None):
    """Full-BFS ``(parents, distances)`` from ``source``.

    ``parents[r]`` is row ``r``'s first discoverer in
    (frontier row, CSR neighbor) order -- ``-1`` for the source itself
    and for unreached rows -- and ``distances[r]`` the hop distance
    (``-1`` unreached).  Because the parent rule matches
    :func:`csr_shortest_path` exactly, unwinding ``target -> source``
    through ``parents`` reproduces it; one full sweep therefore serves
    every target reachable from ``source``, which is what lets the
    traffic-serving router cache a cluster's whole leg fan-out per
    (cluster, leg source) instead of re-running a path search per
    request.
    """
    n = len(csr)
    if not 0 <= source < n:
        raise TopologyError(f"source row {source} out of range [0, {n})")
    return kernels.bfs_parents(csr.indptr, csr.indices, source, labels=labels)


def csr_component_labels(csr):
    """Per-row component label: the smallest row index in the component."""
    n = len(csr)
    if n == 0 or csr.indices.size == 0:
        return np.arange(n, dtype=np.int64)
    return kernels.component_labels(csr.indptr, csr.indices)


def resolve_forest(parent_rows):
    """Roots and depths of a parent-pointer forest by pointer doubling.

    ``parent_rows[i]`` is the parent row of ``i`` (roots point to
    themselves).  Returns ``(roots, depths)`` -- both ``int64`` arrays --
    in O(n log h) vectorized/compiled steps, ``h`` the tallest tree.
    Raises :class:`TopologyError` when the links contain a cycle (they
    then never converge to fixed points).
    """
    parents = np.ascontiguousarray(parent_rows, dtype=np.int64)
    n = parents.size
    if n and (parents.min() < 0 or parents.max() >= n):
        raise TopologyError("parent rows out of range")
    roots, depths, ok = kernels.resolve_forest(parents)
    if not ok:
        raise TopologyError("parent links form a cycle")
    return roots, depths
