"""Baseline clustering heuristics the density metric is compared against."""

from repro.clustering.baselines.degree import degree_clustering
from repro.clustering.baselines.incremental import (
    GreedyDominatingEngine,
    MaxMinEngine,
    maxmin_clustering,
)
from repro.clustering.baselines.lowest_id import lowest_id_clustering

__all__ = [
    "GreedyDominatingEngine",
    "MaxMinEngine",
    "degree_clustering",
    "lowest_id_clustering",
    "maxmin_clustering",
]
