"""Hierarchical clustering (the paper's announced future work)."""

from repro.hierarchy.hierarchy import (
    DEFAULT_MAX_LEVELS,
    Hierarchy,
    HierarchyLevel,
    build_hierarchy,
)
from repro.hierarchy.overlay import Overlay, gateway_for, overlay_topology
from repro.hierarchy.routing import hierarchical_route, route_stretch

__all__ = [
    "DEFAULT_MAX_LEVELS",
    "Hierarchy",
    "HierarchyLevel",
    "Overlay",
    "build_hierarchy",
    "gateway_for",
    "hierarchical_route",
    "overlay_topology",
    "route_stretch",
]
