"""Baseline clustering oracles: the per-node greedy and max-min loops.

Each baseline metric has one implementation in ``src/``, an engine
(``repro.clustering.baselines.incremental``): the greedy engine scans
in one ``argsort`` order with a covered bitmask and affiliates by one
masked max-reduction over the CSR rows; the max-min engine floods with
per-round ``reduceat`` reductions over ``(d, n)`` log arrays and picks
every parent in one masked min-reduction.  A scratch clustering
(``lowest_id_clustering``, ``degree_clustering``,
``maxmin_clustering``) is a fresh engine's first window.  These are the
loops the engines replaced, kept as the definitions every engine window
and every scratch clustering must equal: node by node over Python sets
and dicts.  The greedy loop takes any comparable priority.
"""

import numpy as np

from repro.clustering.result import Clustering
from repro.graph.traversal import csr_multi_source_distances
from repro.util.errors import ConfigurationError


def lowest_id_clustering(graph, tie_ids=None):
    """Lowest-ID clustering: the greedy rule, smaller identifier first."""
    tie_ids = checked_tie_ids(graph, tie_ids)
    return greedy_dominating_clustering(
        graph, {node: -tie_ids[node] for node in graph})


def degree_clustering(graph, tie_ids=None):
    """Highest-degree clustering: the greedy rule by (degree, smaller
    identifier)."""
    tie_ids = checked_tie_ids(graph, tie_ids)
    return greedy_dominating_clustering(
        graph, {node: (graph.degree(node), -tie_ids[node]) for node in graph})


def checked_tie_ids(graph, tie_ids):
    """``tie_ids`` (default: the nodes themselves), checked to cover
    exactly the graph's nodes with globally unique identifiers."""
    if tie_ids is None:
        tie_ids = {node: node for node in graph}
    if set(tie_ids) != set(graph.nodes):
        raise ConfigurationError("tie_ids must cover exactly the graph's nodes")
    if len(set(tie_ids.values())) != len(tie_ids):
        raise ConfigurationError("tie_ids must be globally unique")
    return tie_ids


def greedy_dominating_clustering(graph, priority, densities=None):
    """Greedy 1-hop clustering by decreasing ``priority``, node by node."""
    heads = set()
    covered = set()
    for node in sorted(graph.nodes, key=priority.get, reverse=True):
        if node not in covered:
            heads.add(node)
            covered.add(node)
            covered |= graph.neighbors(node)

    parents = {}
    for node in graph:
        if node in heads:
            parents[node] = node
            continue
        adjacent_heads = [q for q in graph.neighbors(node) if q in heads]
        # Every non-head is dominated by construction.
        parents[node] = max(adjacent_heads, key=priority.get)
    return Clustering(graph, parents, densities=densities)


def maxmin_clustering(graph, d=2, tie_ids=None):
    """Max-Min d-cluster formation over per-node dicts and flood logs."""
    if d < 1:
        raise ConfigurationError(f"d must be >= 1, got {d}")
    tie_ids = checked_tie_ids(graph, tie_ids)
    chosen_head = maxmin_chosen_heads(graph, d, tie_ids)
    parents = parents_from_membership(graph, chosen_head, tie_ids)
    return Clustering(graph, parents)


def maxmin_chosen_heads(graph, d, tie_ids):
    """Per-node head after rules 1-3 and the normalization: the clusters
    before the singleton fallback (DESIGN.md, deviation 3) splits off
    members that cannot reach their head inside the cluster."""
    max_log = flood(
        graph,
        rounds=d,
        combine=max,
        start={node: tie_ids[node] for node in graph},
    )
    final_max = {node: max_log[node][-1] for node in graph}
    min_log = flood(graph, rounds=d, combine=min, start=final_max)

    head_id_of = {}
    for node in graph:
        head_id_of[node] = select_head_id(
            tie_ids[node],
            max_log[node],
            min_log[node],
        )

    id_to_node = {tie_ids[node]: node for node in graph}
    chosen_head = {node: id_to_node[head_id_of[node]] for node in graph}
    # A node selected as head by anyone must head its own cluster, or the
    # membership map would be ambiguous (standard max-min normalization).
    for head in set(chosen_head.values()):
        chosen_head[head] = head
    return chosen_head


def flood(graph, rounds, combine, start):
    """Run ``rounds`` of synchronous flooding, logging each round's winner."""
    current = dict(start)
    logs = {node: [] for node in graph}
    for _ in range(rounds):
        updated = {}
        for node in graph:
            values = [current[node]]
            values.extend(current[q] for q in graph.neighbors(node))
            updated[node] = combine(values)
        current = updated
        for node in graph:
            logs[node].append(current[node])
    return logs


def select_head_id(own_id, max_winners, min_winners):
    """Rules 1-3 of max-min head selection for one node."""
    if own_id in min_winners:
        return own_id  # Rule 1
    pairs = set(max_winners) & set(min_winners)
    if pairs:
        return min(pairs)  # Rule 2
    return max_winners[-1]  # Rule 3


def parents_from_membership(graph, chosen_head, tie_ids):
    """Per-node head choices -> joining forest, one node at a time."""
    csr = graph.to_csr()
    index_of = csr.index_of
    n = len(csr)
    # -1 keeps any row not covered by chosen_head deterministically
    # unreachable (chosen_head is total over the graph today, but the
    # sweep must not depend on uninitialized memory if that ever slips).
    labels = np.full(n, -1, dtype=np.int64)
    for node, head in chosen_head.items():
        labels[index_of[node]] = index_of[head]
    sources = np.fromiter(
        {index_of[head] for head in chosen_head.values()},
        dtype=np.int64,
    )
    dist = csr_multi_source_distances(csr, sources, labels=labels)

    parents = {}
    ids = csr.ids
    indptr, indices = csr.indptr, csr.indices
    for row in range(n):
        node = ids[row]
        if labels[row] == row:
            parents[node] = node  # a head roots its own tree
        elif dist[row] < 0:
            parents[node] = node  # unreachable: fall back to singleton
        else:
            nbrs = indices[indptr[row] : indptr[row + 1]]
            closer = nbrs[(labels[nbrs] == labels[row]) & (dist[nbrs] == dist[row] - 1)]
            parents[node] = min(
                (ids[q] for q in closer.tolist()),
                key=tie_ids.get,
            )
    return parents
