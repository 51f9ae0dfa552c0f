"""Energy-aware cluster-head selection.

The energy-aware order prepends a coarse residual-energy bucket to the
paper's key: among nodes of comparable energy, density and identifiers
decide exactly as in Section 4; a node one bucket lower loses headship to
a fresher neighbor.  This slots into the fixpoint machinery through
:func:`repro.clustering.oracle.clustering_from_keys` -- the extension
point the paper's conclusion gestures at ("could be applied to several
clusterization metrics").

Density evaluation runs on the graph's frozen CSR snapshot
(:meth:`~repro.graph.graph.Graph.to_csr`): repeated windows over an
unchanged graph reuse the snapshot and its memoized triangle counts, so
only the first window of a lifetime simulation pays for triangle
counting.  Callers that already hold the window's densities can pass
them through ``densities=`` to skip even the density map.
"""

from repro.clustering.density import all_densities
from repro.clustering.oracle import clustering_from_keys, compute_clustering
from repro.util.errors import ConfigurationError

POLICIES = ("energy-aware", "static")


def energy_keys(graph, battery, tie_ids, dag_ids=None, buckets=5,
                densities=None):
    """Per-node keys ``(energy bucket, density, -dag, -tie)``."""
    if densities is None:
        densities = all_densities(graph, exact=True)
    keys = {}
    for node in graph:
        components = [battery.bucket(node, buckets=buckets),
                      densities[node]]
        if dag_ids is not None:
            components.append(-dag_ids[node])
        components.append(-tie_ids[node])
        keys[node] = tuple(components)
    return keys


def energy_aware_clustering(graph, battery, tie_ids=None, dag_ids=None,
                            buckets=5, fusion=False, densities=None):
    """Density clustering biased toward energy-rich heads."""
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    if densities is None:
        densities = all_densities(graph, exact=True)
    keys = energy_keys(graph, battery, tie_ids, dag_ids=dag_ids,
                       buckets=buckets, densities=densities)
    return clustering_from_keys(graph, keys, fusion=fusion,
                                densities=densities, dag_ids=dag_ids,
                                order_name="energy-aware")


def clustering_for_policy(policy, graph, battery, tie_ids, dag_ids=None,
                          previous=None):
    """One window's clustering under the given policy.

    ``"static"`` is the paper's improved algorithm (incumbent order: heads
    serve as long as possible, the worst case for battery fairness);
    ``"energy-aware"`` rotates headship toward energy-rich nodes.
    """
    if policy == "energy-aware":
        return energy_aware_clustering(graph, battery, tie_ids=tie_ids,
                                       dag_ids=dag_ids)
    if policy == "static":
        return compute_clustering(graph, tie_ids=tie_ids, dag_ids=dag_ids,
                                  order="incumbent", previous=previous)
    raise ConfigurationError(
        f"unknown policy {policy!r}; expected one of {POLICIES}")
