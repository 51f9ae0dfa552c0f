"""Lowest-identifier clustering (Baker-Ephremides, 1981; CBRP draft).

The classic linked-cluster heuristic: a node becomes a cluster-head iff it
has the lowest identifier among the not-yet-covered nodes of its closed
neighborhood; other nodes affiliate with the lowest-identifier adjacent
head.  Referenced by the paper's state of the art ([2], [12]) and one of
the comparators of [16].
"""

from repro.clustering.baselines.common import (
    checked_tie_ids,
    greedy_dominating_clustering,
)


def lowest_id_clustering(graph, tie_ids=None):
    """1-hop clusters headed by local identifier minima.

    ``tie_ids`` maps node -> unique integer identifier; defaults to the
    nodes themselves.
    """
    tie_ids = checked_tie_ids(graph, tie_ids)
    # Lower identifier wins, so priority is the negated identifier.
    priority = {node: -tie_ids[node] for node in graph}
    return greedy_dominating_clustering(graph, priority)
