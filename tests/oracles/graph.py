"""Graph oracle: the dict-of-sets adjacency an add-edge loop builds.

``repro.graph.graph.Graph`` is one frozen CSR snapshot.  This is the
structure it replaced, kept as the definition every constructor must
equal: nodes in first-seen order (``nodes`` first, then each edge
endpoint not seen yet), each neighbor set filled one edge at a time,
self-loops rejected, duplicate and reversed edges idempotent.
"""

from repro.util.errors import TopologyError


def reference_adjacency(nodes=(), edges=()):
    """``{node: set(neighbors)}`` built one ``(u, v)`` edge at a time."""
    adj = {}
    for node in nodes:
        if node not in adj:
            adj[node] = set()
    for u, v in edges:
        if u == v:
            raise TopologyError(f"self-loop on node {u!r} is not allowed")
        if u not in adj:
            adj[u] = set()
        if v not in adj:
            adj[v] = set()
        adj[u].add(v)
        adj[v].add(u)
    return adj


def adjacency_of(graph):
    """``{node: graph.neighbors(node)}`` in graph order."""
    return {node: graph.neighbors(node) for node in graph}


def assert_symmetric(graph):
    """No self-loops, and each neighbor of ``u`` has ``u`` as a neighbor."""
    adj = adjacency_of(graph)
    for u, neighbors in adj.items():
        assert u not in neighbors, f"self-loop on {u!r}"
        for v in neighbors:
            assert u in adj[v], f"asymmetric edge: {u!r} -> {v!r}"
