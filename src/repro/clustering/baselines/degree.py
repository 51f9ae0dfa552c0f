"""Highest-degree clustering (Gerla-Tsai / Chen-Stojmenovic style).

A node becomes a cluster-head iff it has the highest degree among the
not-yet-covered nodes of its closed neighborhood (identifier breaks ties,
lower wins); other nodes affiliate with the best adjacent head.  This is
the "degree" metric the paper's Section 3 reports the density heuristic to
be more stable than, and the comparator used in the stability benches.
"""

from repro.clustering.baselines.common import (
    checked_tie_ids,
    greedy_dominating_clustering,
)


def degree_clustering(graph, tie_ids=None):
    """1-hop clusters headed by local degree maxima."""
    tie_ids = checked_tie_ids(graph, tie_ids)
    priority = {node: (graph.degree(node), -tie_ids[node]) for node in graph}
    return greedy_dominating_clustering(graph, priority)
