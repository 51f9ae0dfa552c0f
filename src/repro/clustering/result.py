"""The :class:`Clustering` result object and its structural metrics.

A clustering is a *joining forest*: every node has a parent ``F(p)`` (a
neighbor, or itself), and the root of each tree is the cluster-head
``H(p)``.  The metrics reported in Tables 4 and 5 live here:

* ``cluster_count`` -- number of cluster-heads ("# clusters");
* ``head_eccentricity`` -- ``e(H(u)/C) = max_{v in C} d(H(u), v)`` in hops,
  measured inside the cluster-induced subgraph (clusters are connected by
  construction since every parent is a neighbor);
* ``tree_length`` -- the height of a cluster's joining tree, i.e. the
  maximum number of parent links from a member to its head, which bounds
  the number of steps head identities need to propagate (Section 5).

Both metric families ride the CSR traversal kernel
(:mod:`repro.graph.traversal`): *all* head eccentricities come from one
batched label-constrained BFS sweep over the whole graph (no induced
subgraphs), and every node's head and joining-tree depth from the one
pointer-doubling resolve of the parent forest that construction runs
(no per-node link-chasing).  Distances and
depths are tie-break-free, so every reported number is identical to
chasing parent links node by node and to a BFS per induced subgraph.
"""

import numpy as np

from repro.graph.dynamic import DensityMap
from repro.graph.traversal import csr_multi_source_distances, resolve_forest
from repro.util.errors import TopologyError


class Clustering:
    """An immutable snapshot of a cluster assignment over a graph."""

    def __init__(self, graph, parents, densities=None, dag_ids=None,
                 order_name=None, fusion=False):
        self.graph = graph
        self.parents = dict(parents)
        # A DensityMap is immutable per window; anything else is copied.
        if densities is not None and not isinstance(densities, DensityMap):
            densities = dict(densities)
        self.densities = densities
        self.dag_ids = dict(dag_ids) if dag_ids is not None else None
        self.order_name = order_name
        self.fusion = fusion
        nodes, index, rows = self._parent_rows()
        # One pointer-doubling resolve finds every head and rejects cycles.
        roots, depths = resolve_forest(rows)
        self.head_of = dict(zip(nodes, [nodes[root] for root in roots.tolist()]))
        self.heads = frozenset(node for node, parent in self.parents.items()
                               if parent == node)
        self.clusters = _group_clusters(nodes, roots)
        self._forest_cache = (index, depths)
        self._height_cache = None
        self._sweep_cache = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _parent_rows(self):
        """``(nodes, index, rows)``: the nodes in parents order, node ->
        position, and each node's parent position; validates the parents.

        On a CSR-only graph (streamed, or rebased by the dynamic
        subsystem) whose rows the parents follow -- every engine's
        output -- positions are CSR rows and adjacency is one vectorized
        membership test; otherwise one ``has_edge`` per node.
        """
        graph = self.graph
        if set(self.parents) != set(graph.nodes):
            raise TopologyError("parents must cover exactly the graph's nodes")
        nodes = tuple(self.parents)
        csr = graph.to_csr() if graph._adj_map is None else None
        if csr is not None and csr.ids == nodes:
            index = csr.index_of
        else:
            csr = None
            index = {node: i for i, node in enumerate(nodes)}
        rows = np.fromiter(
            (index.get(parent, -1) for parent in self.parents.values()),
            dtype=np.int64, count=len(nodes))
        if csr is not None:
            own = np.arange(len(nodes), dtype=np.int64)
            bad = np.flatnonzero((rows != own) & ~csr.has_edges(own, rows))
            invalid = [nodes[i] for i in bad[:1]]
        else:
            invalid = (node for node, parent in self.parents.items()
                       if parent != node and not graph.has_edge(node, parent))
        for node in invalid:
            raise TopologyError(
                f"parent of {node!r} is {self.parents[node]!r}, which is not "
                "a neighbor")
        return nodes, index, rows

    # ------------------------------------------------------------------
    # traversal-kernel caches
    # ------------------------------------------------------------------

    def __getstate__(self):
        # The caches hold frozen CSR snapshots and arrays; they are cheap
        # to rebuild and would bloat (or break) pickled payloads shipped
        # to experiment worker processes.
        state = self.__dict__.copy()
        state["_forest_cache"] = None
        state["_height_cache"] = None
        state["_sweep_cache"] = None
        return state

    def _forest(self):
        """``(index, depths)``: per-node joining-forest depths.

        The pointer-doubling resolve of the construction (O(n log h)
        numpy ops), kept as a cache -- the parent map is immutable -- and
        redone only after unpickling.
        """
        if self._forest_cache is None:
            _nodes, index, rows = self._parent_rows()
            self._forest_cache = (index, resolve_forest(rows)[1])
        return self._forest_cache

    def _tree_heights(self):
        """Per-head joining-tree heights, one ``maximum.at`` scatter."""
        if self._height_cache is None:
            index, depths = self._forest()
            heights = np.zeros(len(index), dtype=np.int64)
            if index:
                head_rows = np.fromiter(
                    (index[self.head_of[node]] for node in self.parents),
                    dtype=np.int64, count=len(index))
                np.maximum.at(heights, head_rows, depths)
            self._height_cache = heights
        return self._height_cache

    def _cluster_sweep(self):
        """``(csr, labels, ecc, reach)`` from one batched head sweep.

        Every head seeds a BFS wave that expands only along edges whose
        endpoints share the head's label, so the sweep computes every
        cluster's internal distances simultaneously -- no induced
        subgraphs.  ``ecc[r]`` / ``reach[r]`` are the eccentricity and
        reached-member count of the head at row ``r``.  Cached against
        the CSR snapshot identity, so any graph mutation (which
        invalidates the snapshot) forces a re-sweep.
        """
        csr = self.graph.to_csr()
        cached = self._sweep_cache
        if cached is not None and cached[0] is csr:
            return cached
        n = len(csr)
        index_of = csr.index_of
        labels = np.full(n, -1, dtype=np.int64)
        for node, head in self.head_of.items():
            row = index_of.get(node)
            head_row = index_of.get(head)
            if row is not None and head_row is not None:
                labels[row] = head_row
        sources = np.fromiter(
            (index_of[head] for head in self.heads if head in index_of),
            dtype=np.int64)
        dist = csr_multi_source_distances(csr, sources, labels=labels)
        ecc = np.zeros(n, dtype=np.int64)
        reach = np.zeros(n, dtype=np.int64)
        reached = dist >= 0
        if bool(reached.any()):
            lab = labels[reached]
            np.maximum.at(ecc, lab, dist[reached])
            reach += np.bincount(lab, minlength=n)
        self._sweep_cache = (csr, labels, ecc, reach)
        return self._sweep_cache

    def cluster_rows(self):
        """``(csr, labels)``: the graph snapshot plus per-row cluster labels.

        ``labels[r]`` is the row index of row ``r``'s head (``-1`` for
        rows outside the clustering).  Shared with hierarchical routing,
        whose intra-cluster legs are label-constrained path searches over
        the same arrays.
        """
        csr, labels, _ecc, _reach = self._cluster_sweep()
        return csr, labels

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def cluster_count(self):
        """Number of clusters (= number of cluster-heads)."""
        return len(self.heads)

    def head(self, node):
        """``H(node)``: the cluster-head of ``node``."""
        return self.head_of[node]

    def parent(self, node):
        """``F(node)``: the parent of ``node`` in the joining forest."""
        return self.parents[node]

    def members(self, head):
        """All nodes in the cluster of ``head`` (including the head)."""
        if head not in self.clusters:
            raise TopologyError(f"{head!r} is not a cluster-head")
        return self.clusters[head]

    def is_head(self, node):
        """True iff ``node`` elected itself (``H(node) = node``)."""
        return self.head_of[node] == node

    def depth(self, node):
        """Number of parent links from ``node`` to its head."""
        index, depths = self._forest()
        return int(depths[index[node]])

    # ------------------------------------------------------------------
    # Table 4 / Table 5 metrics
    # ------------------------------------------------------------------

    def tree_length(self, head):
        """Height of the joining tree rooted at ``head`` (0 for singletons)."""
        self.members(head)  # validates that ``head`` is a cluster-head
        index, _depths = self._forest()
        return int(self._tree_heights()[index[head]])

    def average_tree_length(self):
        """Mean joining-tree height over clusters ("average tree length")."""
        if not self.heads:
            return 0.0
        return sum(self.tree_length(head) for head in self.heads) / len(self.heads)

    def head_eccentricity(self, head):
        """``e(H(u)/C)``: max hop distance from the head to any member,
        measured inside the cluster-induced subgraph.

        Served from the cached batched sweep: label-constrained expansion
        yields exactly the induced-subgraph distances, because every
        traversed edge has both endpoints inside the cluster.  Raises
        :class:`TopologyError` when the graph changed under the
        clustering so that members are missing or cut off from the head.
        """
        members = self.members(head)
        csr, _labels, ecc, reach = self._cluster_sweep()
        index_of = csr.index_of
        row = index_of.get(head)
        if row is None or int(reach[row]) != len(members):
            missing = [node for node in members if node not in index_of]
            if missing:
                raise TopologyError(
                    f"nodes not in graph: {sorted(missing, key=repr)}")
            raise TopologyError(
                f"cluster of {head!r} is not connected; joining forest invalid")
        return int(ecc[row])

    def average_head_eccentricity(self):
        """Mean head eccentricity over clusters."""
        if not self.heads:
            return 0.0
        return sum(self.head_eccentricity(h) for h in self.heads) / len(self.heads)

    # ------------------------------------------------------------------
    # invariants (used by tests and the stabilization monitor)
    # ------------------------------------------------------------------

    def check_invariants(self, heads_non_adjacent=True):
        """Verify the structural guarantees the paper relies on.

        Raises :class:`TopologyError` on violation.  Cluster connectivity
        is checked in a single pass against the batched sweep's reach
        counts (one BFS over the graph, not one per head).
        ``heads_non_adjacent`` asserts that no two cluster-heads are
        neighbors (guaranteed by the basic rule); when :attr:`fusion` is
        set, heads must additionally be at least 3 hops apart, which
        :meth:`check_fusion_separation` covers.
        """
        for head in self.heads:
            # Served from one shared batched sweep, so the whole loop costs
            # one BFS over the graph plus O(heads) cache reads.
            self.head_eccentricity(head)  # raises if a cluster is disconnected
        if heads_non_adjacent:
            for head in self.heads:
                adjacent_heads = self.graph.neighbors(head) & self.heads
                if adjacent_heads:
                    raise TopologyError(
                        f"cluster-heads {head!r} and {adjacent_heads!r} are "
                        "adjacent")
        if self.fusion:
            self.check_fusion_separation()

    def check_fusion_separation(self):
        """With the fusion rule, two heads are at least 3 hops apart."""
        for head in self.heads:
            two_hop = self.graph.k_neighborhood(head, 2)
            conflicting = two_hop & self.heads
            if conflicting:
                raise TopologyError(
                    f"fusion violated: heads {conflicting!r} within 2 hops "
                    f"of head {head!r}")

    def __repr__(self):
        return (f"Clustering(clusters={self.cluster_count}, "
                f"order={self.order_name!r}, fusion={self.fusion})")


def _group_clusters(nodes, roots):
    """``{head: frozenset(members)}`` from per-position root positions,
    heads in the order of their first member."""
    if not nodes:
        return {}
    order = np.argsort(roots, kind="stable")
    grouped = roots[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    bounds = np.r_[starts, len(order)].tolist()
    members = order.tolist()
    clusters = {}
    for group in np.argsort(order[starts], kind="stable").tolist():
        head = nodes[int(grouped[starts[group]])]
        clusters[head] = frozenset(
            nodes[i] for i in members[bounds[group]:bounds[group + 1]])
    return clusters
