"""Density-driven clustering: metric, orders, election, baselines."""

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
    "compute_clustering",
    "degree_clustering",
    "density",
    "density_bounds",
    "edges_among",
    "lowest_id_clustering",
    "make_order",
    "maxmin_clustering",
]
