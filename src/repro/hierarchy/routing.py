"""Hierarchical routing over a 2-level cluster hierarchy.

The up-over-down scheme every cluster-based routing paper assumes:

1. route inside the source's cluster to the gateway toward the next
   cluster on the overlay path;
2. cross the gateway edge;
3. repeat along the overlay path computed between the source's and
   destination's heads;
4. finish inside the destination's cluster.

Intra-cluster legs follow shortest paths in the cluster-induced subgraph,
overlay legs follow shortest paths in the overlay graph.  The *stretch*
(hierarchical length / flat shortest-path length) quantifies what the
routing-state savings cost; the scalability experiment reports both.

Traversal-heavy pieces ride the CSR kernel: the flat BFS distance of
:func:`route_stretch` is one array-frontier sweep, and the intra-cluster
legs are label-constrained path searches over the full-graph snapshot
(sharing the clustering's cached per-row labels), so no induced subgraph
is ever materialized.  Leg *lengths* are shortest-path lengths between
fixed endpoints, a tie-break-free quantity, so every reported hop count
and stretch is unchanged.  The overlay leg keeps the dict-backend
:func:`shortest_path`.  Overlays are not small -- a 10^5-node
``pipeline`` pass elects ~4.6k heads, the 10^6-node route bench 46.6k
-- but the dict BFS's expansion order fixes the head-path tie-breaks,
so keeping it keeps the chosen head path (and hence the gateway
sequence) bit-identical.
"""

import math
from collections import deque

from repro.graph.traversal import csr_bfs_distances, csr_shortest_path
from repro.hierarchy.overlay import gateway_for
from repro.util.errors import ConfigurationError, TopologyError

#: Sentinel returned by :func:`route_stretch` for a disconnected pair:
#: infinitely many hops on both paths, infinite stretch.  Callers that
#: sample pairs filter with ``math.isinf(stretch)`` instead of catching
#: an exception.
UNREACHABLE = (math.inf, math.inf, math.inf)


def shortest_path(graph, source, target):
    """One shortest path (as a node list) or None when disconnected."""
    if source not in graph or target not in graph:
        raise TopologyError("endpoints must be in the graph")
    if source == target:
        return [source]
    parents = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in parents:
                parents[neighbor] = node
                if neighbor == target:
                    return _unwind(parents, target)
                queue.append(neighbor)
    return None


def _unwind(parents, target):
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def _intra_cluster_path(level, head, source, target):
    """Shortest same-cluster path, label-constrained on the full-graph CSR."""
    csr, labels = level.clustering.cluster_rows()
    index_of = csr.index_of
    if source not in index_of or target not in index_of:
        raise TopologyError("endpoints must be in the graph")
    head_row = index_of.get(head)
    if head_row is None or labels[index_of[source]] != head_row \
            or labels[index_of[target]] != head_row:
        # Same contract as routing inside induced_subgraph(members(head)):
        # endpoints outside the cluster are errors, not detours.
        raise TopologyError("endpoints must be in the graph")
    rows = csr_shortest_path(csr, index_of[source], index_of[target],
                             labels=labels)
    if rows is None:
        raise TopologyError(
            f"cluster of {head!r} is internally disconnected")
    return [csr.ids[row] for row in rows]


def hierarchical_route(hierarchy, source, destination):
    """Physical node path from ``source`` to ``destination``; None when the
    overlay offers no route (disconnected network).

    Uses the level-0 clustering and the level-0 overlay; deeper levels
    refine the overlay search space but the expansion below is already the
    canonical 2-level scheme.
    """
    level = hierarchy.physical
    if level.overlay is None and \
            level.clustering.head(source) != level.clustering.head(destination):
        return None
    head_src = level.clustering.head(source)
    head_dst = level.clustering.head(destination)
    if head_src == head_dst:
        return _intra_cluster_path(level, head_src, source, destination)

    overlay = level.overlay
    head_path = shortest_path(overlay.topology.graph, head_src, head_dst)
    if head_path is None:
        return None

    route = [source]
    current = source
    for hop in range(len(head_path) - 1):
        here, there = head_path[hop], head_path[hop + 1]
        exit_node, entry_node = gateway_for(overlay, here, there)
        leg = _intra_cluster_path(level, here, current, exit_node)
        route.extend(leg[1:])
        route.append(entry_node)
        current = entry_node
    tail = _intra_cluster_path(level, head_dst, current, destination)
    route.extend(tail[1:])
    return route


def route_stretch(hierarchy, source, destination):
    """``(hierarchical hops, flat shortest hops, stretch)`` for one pair.

    Both endpoints must be physical nodes (:class:`TopologyError`
    otherwise).  A *disconnected* pair returns the documented
    :data:`UNREACHABLE` sentinel ``(inf, inf, inf)`` -- an expected
    outcome on sparse deployments, not an error.  A connected pair for
    which the hierarchy offers no route would be an internal
    inconsistency and still raises :class:`ConfigurationError`.
    """
    graph = hierarchy.physical.topology.graph
    if source not in graph:
        raise TopologyError(f"source {source!r} not in graph")
    if destination not in graph:
        raise TopologyError(f"destination {destination!r} not in graph")
    csr = graph.to_csr()
    dist = csr_bfs_distances(csr, csr.index_of[source])
    target_row = csr.index_of[destination]
    if dist[target_row] < 0:
        return UNREACHABLE
    flat = int(dist[target_row])
    if flat == 0:
        return (0, 0, 1.0)
    route = hierarchical_route(hierarchy, source, destination)
    if route is None:
        raise ConfigurationError("hierarchy offers no route for the pair")
    hops = len(route) - 1
    return (hops, flat, hops / flat)
