"""Hop-distance computations: BFS, eccentricity, diameter, components.

The paper's metrics are hop-based: ``d(u, v)`` is the minimum number of hops
and ``e(H(u)/C) = max_{v in C(u)} d(H(u), v)`` is the eccentricity of a
cluster-head inside its cluster.  All functions here operate on
:class:`~repro.graph.graph.Graph` instances.

These functions ride the graph's CSR snapshot
(:mod:`repro.graph.traversal`): frontiers are numpy index arrays, so a
BFS is a handful of vectorized gathers per level instead of a Python
loop per edge.  Distances and component partitions are tie-break-free,
so results are identical to a deque BFS over neighbor sets.
"""

import numpy as np

from repro.graph.traversal import (
    DistanceSweep,
    csr_bfs_distances,
    csr_component_labels,
)
from repro.util.errors import TopologyError

INFINITY = float("inf")


def bfs_distances(graph, source):
    """Hop distance from ``source`` to every reachable node (source -> 0)."""
    if source not in graph:
        raise TopologyError(f"source {source!r} not in graph")
    csr = graph.to_csr()
    dist = csr_bfs_distances(csr, csr.index_of[source])
    ids = csr.ids
    return {ids[row]: int(dist[row])
            for row in np.flatnonzero(dist >= 0).tolist()}


def hop_distance(graph, u, v):
    """Minimum hop count from ``u`` to ``v``; ``inf`` if disconnected.

    One :class:`~repro.graph.traversal.DistanceSweep` lookup: BFS balls
    from ``u`` and ``v`` grow a level at a time, smaller frontier first,
    until they touch (or one runs out of rows), so a lookup costs about
    two half-radius balls instead of one full-radius ball.
    """
    if v not in graph:
        raise TopologyError(f"node {v!r} not in graph")
    if u not in graph:
        raise TopologyError(f"source {u!r} not in graph")
    csr = graph.to_csr()
    hops = DistanceSweep(csr, csr.index_of[u]).distance(csr.index_of[v])
    return INFINITY if hops < 0 else hops


def eccentricity(graph, node, within=None):
    """Max hop distance from ``node`` to the nodes of ``within``.

    ``within`` defaults to all of ``graph``.  If some target is unreachable
    the eccentricity is ``inf``.  The default path works directly on the
    kernel's distance array -- no node-set or target-set copies.
    """
    if node not in graph:
        raise TopologyError(f"source {node!r} not in graph")
    csr = graph.to_csr()
    dist = csr_bfs_distances(csr, csr.index_of[node])
    if within is None:
        if bool((dist < 0).any()):
            return INFINITY
        return int(dist.max())
    targets = set(within)
    missing = targets - set(graph.nodes)
    if missing:
        raise TopologyError(f"targets not in graph: {sorted(missing, key=repr)}")
    if not targets:
        raise TopologyError("eccentricity over an empty target set")
    index_of = csr.index_of
    rows = np.fromiter((index_of[target] for target in targets),
                       dtype=np.int64, count=len(targets))
    target_dist = dist[rows]
    if bool((target_dist < 0).any()):
        return INFINITY
    return int(target_dist.max())


def diameter(graph):
    """Max eccentricity over all nodes; ``inf`` if disconnected, 0 if empty."""
    if len(graph) == 0:
        return 0
    csr = graph.to_csr()
    best = 0
    for row in range(len(csr)):
        dist = csr_bfs_distances(csr, row)
        if bool((dist < 0).any()):
            # Some node is unreachable, so *every* eccentricity is inf.
            return INFINITY
        best = max(best, int(dist.max()))
    return best


def connected_components(graph):
    """List of node sets, one per connected component.

    Components are ordered by their first node in graph row order.
    """
    n = len(graph)
    if n == 0:
        return []
    csr = graph.to_csr()
    labels = csr_component_labels(csr)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(np.r_[True, sorted_labels[1:] != sorted_labels[:-1]])
    bounds = np.r_[starts, n].tolist()
    ids = csr.ids
    members = order.tolist()
    return [{ids[i] for i in members[lo:hi]}
            for lo, hi in zip(bounds, bounds[1:])]


def is_connected(graph):
    """True iff the graph has at most one connected component."""
    if len(graph) <= 1:
        return True
    csr = graph.to_csr()
    return bool((csr_bfs_distances(csr, 0) >= 0).all())
