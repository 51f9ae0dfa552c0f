"""Density-driven clustering: metric, orders, head rules, oracle, baselines."""

from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.density import (
    ISOLATED_DENSITY,
    all_densities,
    density,
    density_bounds,
    edges_among,
)
from repro.clustering.heads import (
    best_neighbor,
    choose_parent,
    dominates_two_hop_heads,
    is_local_max,
    wants_headship,
)
from repro.clustering.incremental import IncrementalElection
from repro.clustering.oracle import compute_clustering
from repro.clustering.order import BasicOrder, IncumbentOrder, NodeView, make_order
from repro.clustering.result import Clustering

__all__ = [
    "BasicOrder",
    "Clustering",
    "ISOLATED_DENSITY",
    "IncrementalElection",
    "IncumbentOrder",
    "NodeView",
    "all_densities",
    "best_neighbor",
    "choose_parent",
    "compute_clustering",
    "degree_clustering",
    "density",
    "density_bounds",
    "dominates_two_hop_heads",
    "edges_among",
    "is_local_max",
    "lowest_id_clustering",
    "make_order",
    "maxmin_clustering",
    "wants_headship",
]
