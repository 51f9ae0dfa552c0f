"""Overlay oracle: gateways by a per-edge scan, head paths by dict BFS.

:func:`repro.hierarchy.overlay.overlay_topology` builds the overlay in
one array pass and :class:`~repro.hierarchy.overlay.Overlay` takes head
paths from the kernel BFS over row-ranked heads.  These are the two
stated rules it must equal, written out per edge and per node: the
gateway of a head pair is the first border edge met when scanning the
physical edges in sorted ``(row, row)`` order, and a head's parent in a
head path is its smallest-row overlay neighbor one BFS level closer to
the source.  Rows are positions in the physical graph's node order.
"""

from collections import deque


def gateways(graph, head_of):
    """``{(head_a, head_b): (u, v)}`` for every adjacent head pair, both
    orientations, ``u`` in ``head_a``'s cluster."""
    nodes = list(graph.nodes)
    row = {node: i for i, node in enumerate(nodes)}
    edges = sorted(tuple(sorted((row[u], row[v]))) for u, v in graph.edges)
    found = {}
    for a, b in edges:
        u, v = nodes[a], nodes[b]
        head_u, head_v = head_of[u], head_of[v]
        if head_u != head_v and (head_u, head_v) not in found:
            found[head_u, head_v] = (u, v)
            found[head_v, head_u] = (v, u)
    return found


def head_parents(overlay_graph, row_of, source):
    """``{head: parent}`` of the smallest-row-parent BFS tree from
    ``source``; ``row_of`` maps each head to its physical row."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        head = queue.popleft()
        for neighbor in overlay_graph.neighbors(head):
            if neighbor not in dist:
                dist[neighbor] = dist[head] + 1
                queue.append(neighbor)
    return {head: min((q for q in overlay_graph.neighbors(head)
                       if dist.get(q) == level - 1), key=row_of.__getitem__)
            for head, level in dist.items() if level > 0}


def head_path(overlay_graph, row_of, source, target):
    """Head tuple ``source .. target`` under :func:`head_parents`;
    ``None`` when the overlay does not connect them."""
    parents = head_parents(overlay_graph, row_of, source)
    if target != source and target not in parents:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parents[path[-1]])
    return tuple(reversed(path))
