"""Polite-renaming oracle: one redraw round as a per-node scan.

:meth:`repro.naming.renaming.PoliteRenaming._redraw_round` finds its
redrawers with one name comparison over the CSR edge arrays.  This is
the definition it must equal, draw for draw: every node, in graph
order, redraws iff a neighbor shares its name and has a larger normal
identifier, excluding the names of all its neighbors.
"""


def polite_redraw_round(graph, ids, namespace, tie_ids, rng):
    """One synchronous polite round over ``graph`` (per-node scan)."""
    updated = {}
    for node in graph:
        colliders = [q for q in graph.neighbors(node) if ids[q] == ids[node]]
        must_redraw = any(tie_ids[node] < tie_ids[q] for q in colliders)
        if must_redraw:
            neighbor_ids = [ids[q] for q in graph.neighbors(node)]
            updated[node] = namespace.sample(rng, exclude=neighbor_ids)
        else:
            updated[node] = ids[node]
    return updated
