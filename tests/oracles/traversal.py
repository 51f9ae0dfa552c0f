"""Traversal oracles: deque BFS over the dict adjacency, and the
clustering metrics by link chasing and induced subgraphs.

:mod:`repro.graph.paths` rides the CSR traversal kernel (array
frontiers), and :class:`repro.clustering.result.Clustering` reads every
depth and tree length from one pointer-doubling resolve of the parent
forest and every head eccentricity from one batched label-constrained
sweep.  These are the per-node loops they replaced, kept as the
definitions they must equal: distances, components, depths and
eccentricities are tie-break-free, so equality is exact.
"""

from collections import deque

from repro.util.errors import TopologyError


def bfs_distances(graph, source):
    """Hop distance from ``source`` to every reachable node, by deque BFS."""
    if source not in graph:
        raise TopologyError(f"source {source!r} not in graph")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def connected_components(graph):
    """Node sets of the connected components, one BFS per component."""
    remaining = set(graph.nodes)
    components = []
    while remaining:
        start = next(iter(remaining))
        component = set(bfs_distances(graph, start))
        components.append(component)
        remaining -= component
    return components


def depth(clustering, node):
    """Parent links from ``node`` to its head, chased one at a time."""
    count = 0
    current = node
    while clustering.parents[current] != current:
        current = clustering.parents[current]
        count += 1
    return count


def tree_length(clustering, head):
    """Height of ``head``'s joining tree: the deepest member's depth."""
    members = clustering.members(head)
    return max(depth(clustering, node) for node in members)


def head_eccentricity(clustering, head):
    """BFS from ``head`` over its cluster's induced subgraph."""
    members = clustering.members(head)
    subgraph = clustering.graph.induced_subgraph(members)
    distances = bfs_distances(subgraph, head)
    if set(distances) != set(members):
        raise TopologyError(
            f"cluster of {head!r} is not connected; joining forest invalid")
    return max(distances.values())
