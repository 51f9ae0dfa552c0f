"""Highest-degree clustering (Gerla-Tsai / Chen-Stojmenovic style).

A node becomes a cluster-head iff it has the highest degree among the
not-yet-covered nodes of its closed neighborhood (identifier breaks ties,
lower wins); other nodes affiliate with the best adjacent head.  This is
the "degree" metric the paper's Section 3 reports the density heuristic to
be more stable than, and the comparator used in the stability benches.
"""

from repro.clustering.baselines.incremental import GreedyDominatingEngine
from repro.clustering.order import id_column


def degree_clustering(graph, tie_ids=None):
    """1-hop clusters headed by local degree maxima.

    ``tie_ids`` maps node -> unique integer identifier; defaults to the
    nodes themselves.  A fresh highest-degree engine's first window.
    """
    engine = GreedyDominatingEngine("degree")
    return engine.seed(graph, id_column(graph.to_csr().ids, tie_ids))
