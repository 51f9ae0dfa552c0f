"""Lowest-identifier clustering (Baker-Ephremides, 1981; CBRP draft).

The classic linked-cluster heuristic: a node becomes a cluster-head iff it
has the lowest identifier among the not-yet-covered nodes of its closed
neighborhood; other nodes affiliate with the lowest-identifier adjacent
head.  Referenced by the paper's state of the art ([2], [12]) and one of
the comparators of [16].
"""

from repro.clustering.baselines.incremental import GreedyDominatingEngine
from repro.clustering.order import id_column


def lowest_id_clustering(graph, tie_ids=None):
    """1-hop clusters headed by local identifier minima.

    ``tie_ids`` maps node -> unique integer identifier; defaults to the
    nodes themselves.  A fresh lowest-ID engine's first window.
    """
    engine = GreedyDominatingEngine("lowest-id")
    return engine.seed(graph, id_column(graph.to_csr().ids, tie_ids))
