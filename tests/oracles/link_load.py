"""Link-load oracle: the per-hop canonicalizing loop.

:class:`~repro.collectors.load.LinkLoadCollector` counts directed hops
and canonicalizes each distinct pair only when its ``loads`` dict is
read.  This is the definition it must equal, key order included: every
hop of every routed request adds one traversal to the undirected link
``(u, v)``, ordered by ``repr``.
"""


def link_loads(events):
    """Canonical ``(u, v)`` -> traversal count over served ``events``."""
    loads = {}
    for served in events:
        route = served.route
        if route is None:
            continue
        for i in range(len(route) - 1):
            u, v = route[i], route[i + 1]
            key = (u, v) if repr(u) <= repr(v) else (v, u)
            loads[key] = loads.get(key, 0) + 1
    return loads
