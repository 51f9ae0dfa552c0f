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

A clustering is stored as *parent rows*: a node tuple and one read-only
``int64`` array whose entry ``i`` is the position of node ``i``'s
parent.  The engines elect on the rows of ``graph.to_csr()`` and hand
their array over through :meth:`Clustering.from_rows`, so a clustering
costs one array and its head set to make.  Everything else is built on
first read and kept: one pointer-doubling resolve of the forest
(:func:`~repro.graph.traversal.resolve_forest`, O(n log h) array
passes) gives every root and depth, and ``parents``, ``head_of`` and
``clusters`` are dicts over those arrays (O(n) each).  Both metric
families read the arrays: *all* head eccentricities come from one
batched label-constrained BFS sweep over the whole graph (no induced
subgraphs, no per-node dicts), and tree heights from one scatter of the
depths onto the roots.  Distances and depths are tie-break-free, so
every reported number is identical to chasing parent links node by node
and to a BFS per induced subgraph.
"""

from functools import cached_property

import numpy as np

from repro.graph.dynamic import DensityMap
from repro.graph.traversal import csr_multi_source_distances, resolve_forest
from repro.util.errors import TopologyError

#: The fields a pickle carries; everything else is rebuilt on first read.
_STATE = ("graph", "densities", "dag_ids", "order_name", "fusion")


class Clustering:
    """An immutable snapshot of a cluster assignment over a graph.

    ``Clustering(graph, parents)`` validates a ``{node: parent}`` map:
    it must cover exactly the graph's nodes, every parent must be the
    node itself or a neighbor, and the links must be acyclic.
    :meth:`from_rows` adopts an engine's parent rows without those
    checks.  Either way ``heads`` is built at once, in the order of the
    rows; ``parents``, ``head_of``, ``clusters`` and the forest's roots
    and depths are built on first read.
    """

    def __init__(self, graph, parents, densities=None, dag_ids=None,
                 order_name=None, fusion=False):
        nodes, rows = _validated_rows(graph, dict(parents))
        self._adopt(graph, nodes, rows, densities, dag_ids, order_name, fusion)
        self._forest  # one pointer-doubling resolve rejects cycles

    @classmethod
    def from_rows(cls, graph, rows, densities=None, dag_ids=None,
                  order_name=None, fusion=False):
        """The clustering whose parent rows over ``graph.to_csr()`` are
        ``rows``.

        Contract, not checked: ``rows[i]`` is ``i`` or a CSR neighbor of
        row ``i``, and the links are acyclic.  The clustering owns the
        array and marks it read-only, so a caller that keeps updating its
        own parent array must hand over a copy.
        """
        clustering = cls.__new__(cls)
        clustering._adopt(graph, graph.to_csr().ids, np.asarray(rows, np.int64),
                          densities, dag_ids, order_name, fusion)
        return clustering

    def _adopt(self, graph, nodes, rows, densities, dag_ids, order_name,
               fusion):
        self.graph = graph
        # A DensityMap is immutable per window; anything else is copied.
        if densities is not None and not isinstance(densities, DensityMap):
            densities = dict(densities)
        self.densities = densities
        self.dag_ids = dict(dag_ids) if dag_ids is not None else None
        self.order_name = order_name
        self.fusion = fusion
        rows.flags.writeable = False
        self._nodes = nodes
        self._rows = rows
        self.heads = frozenset(map(nodes.__getitem__,
                                   self._head_positions.tolist()))
        self._sweep_cache = None

    def __getstate__(self):
        # The defining fields only, rows as int32 and identity node ids
        # as their count; the dicts and array caches are rebuilt on read.
        state = {name: self.__dict__[name] for name in _STATE}
        nodes = self._nodes
        n = len(nodes)
        state["_nodes"] = n if nodes == tuple(range(n)) else nodes
        state["_rows"] = self._rows.astype(np.int32)
        return state

    def __setstate__(self, state):
        nodes = state.pop("_nodes")
        if isinstance(nodes, int):
            nodes = tuple(range(nodes))
        rows = state.pop("_rows").astype(np.int64)
        self._adopt(nodes=nodes, rows=rows, **state)

    # ------------------------------------------------------------------
    # the parent rows and what is built from them on first read
    # ------------------------------------------------------------------

    @cached_property
    def _head_positions(self):
        """Positions of the heads (self-parents), ascending."""
        rows = self._rows
        return np.flatnonzero(rows == np.arange(rows.size))

    @cached_property
    def _forest(self):
        """``(roots, depths)``: every position's root position and its
        number of parent links to it, from one resolve."""
        roots, depths = resolve_forest(self._rows)
        roots.flags.writeable = False
        depths.flags.writeable = False
        return roots, depths

    @cached_property
    def _index(self):
        """node -> position."""
        return {node: i for i, node in enumerate(self._nodes)}

    @cached_property
    def _sizes(self):
        """Member count per head position (0 elsewhere)."""
        return np.bincount(self._forest[0], minlength=self._rows.size)

    @cached_property
    def _heights(self):
        """Joining-tree height per head position, one ``maximum.at``
        scatter of the depths onto the roots."""
        roots, depths = self._forest
        heights = np.zeros(roots.size, dtype=np.int64)
        np.maximum.at(heights, roots, depths)
        return heights

    @cached_property
    def parents(self):
        """``{node: F(node)}``, in row order."""
        nodes = self._nodes
        return dict(zip(nodes, map(nodes.__getitem__, self._rows.tolist())))

    @cached_property
    def head_of(self):
        """``{node: H(node)}``, in row order."""
        nodes = self._nodes
        return dict(zip(nodes, map(nodes.__getitem__,
                                   self._forest[0].tolist())))

    @cached_property
    def clusters(self):
        """``{head: frozenset(members)}``, heads in the order of their
        first member."""
        return _group_clusters(self._nodes, self._forest[0])

    def head_mask(self, ids):
        """Boolean array over ``ids``: which of them are heads here.

        One comparison over the rows when ``ids`` is this clustering's
        node order (a window over the same snapshot rows); one set
        lookup per node otherwise.
        """
        nodes = self._nodes
        if ids is nodes or ids == nodes:
            rows = self._rows
            return rows == np.arange(rows.size)
        heads = self.heads
        return np.fromiter((node in heads for node in ids), dtype=bool,
                           count=len(ids))

    def _head_position(self, head):
        """``head``'s position; :class:`TopologyError` if it heads no
        cluster."""
        position = self._index.get(head)
        if position is None or self._rows[position] != position:
            raise TopologyError(f"{head!r} is not a cluster-head")
        return position

    # ------------------------------------------------------------------
    # traversal-kernel caches
    # ------------------------------------------------------------------

    def _cluster_sweep(self):
        """``(csr, labels, ecc, reach, row_of)`` from one batched head
        sweep.

        Every head seeds a BFS wave that expands only along edges whose
        endpoints share the head's label, so the sweep computes every
        cluster's internal distances simultaneously -- no induced
        subgraphs.  ``ecc[r]`` / ``reach[r]`` are the eccentricity and
        reached-member count of the head at row ``r``, and ``row_of``
        maps positions to rows of the current snapshot (``-1`` for nodes
        no longer in the graph).  Cached against the CSR snapshot
        identity, so rebasing the graph onto a new snapshot forces a
        re-sweep.
        """
        csr = self.graph.to_csr()
        cached = self._sweep_cache
        if cached is not None and cached[0] is csr:
            return cached
        nodes = self._nodes
        roots = self._forest[0]
        if csr.ids is nodes or csr.ids == nodes:
            # The clustering's positions are the snapshot's rows.
            row_of = np.arange(len(nodes), dtype=np.int64)
            labels = roots
        else:
            index_of = csr.index_of
            row_of = np.fromiter((index_of.get(node, -1) for node in nodes),
                                 dtype=np.int64, count=len(nodes))
            labels = np.full(len(csr), -1, dtype=np.int64)
            head_rows = row_of[roots]
            kept = (row_of >= 0) & (head_rows >= 0)
            labels[row_of[kept]] = head_rows[kept]
        sources = row_of[self._head_positions]
        dist = csr_multi_source_distances(csr, sources[sources >= 0],
                                          labels=labels)
        n = len(csr)
        ecc = np.zeros(n, dtype=np.int64)
        reach = np.zeros(n, dtype=np.int64)
        reached = dist >= 0
        if bool(reached.any()):
            lab = labels[reached]
            np.maximum.at(ecc, lab, dist[reached])
            reach += np.bincount(lab, minlength=n)
        self._sweep_cache = (csr, labels, ecc, reach, row_of)
        return self._sweep_cache

    def cluster_rows(self):
        """``(csr, labels)``: the graph snapshot plus per-row cluster labels.

        ``labels[r]`` is the row index of row ``r``'s head (``-1`` for
        rows outside the clustering).  Shared with hierarchical routing,
        whose intra-cluster legs are label-constrained path searches over
        the same arrays.  Callers must not write to ``labels``: it may
        be the clustering's own (read-only) root array.
        """
        csr, labels, _ecc, _reach, _row_of = self._cluster_sweep()
        return csr, labels

    def _head_eccentricities(self):
        """Every head's eccentricity, heads in ascending position order.

        One array check of the sweep's reach counts against the cluster
        sizes; when a cluster fails it, the per-head loop raises the
        error :meth:`head_eccentricity` gives for the first such head.
        """
        _csr, _labels, ecc, reach, row_of = self._cluster_sweep()
        positions = self._head_positions
        rows = row_of[positions]
        if (rows < 0).any() or (reach[rows] != self._sizes[positions]).any():
            for head in self.heads:
                self.head_eccentricity(head)
        return ecc[rows]

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
        return int(self._forest[1][self._index[node]])

    # ------------------------------------------------------------------
    # Table 4 / Table 5 metrics
    # ------------------------------------------------------------------

    def tree_length(self, head):
        """Height of the joining tree rooted at ``head`` (0 for singletons)."""
        return int(self._heights[self._head_position(head)])

    def average_tree_length(self):
        """Mean joining-tree height over clusters ("average tree length")."""
        if not self.heads:
            return 0.0
        heights = self._heights[self._head_positions]
        return int(heights.sum()) / len(self.heads)

    def head_eccentricity(self, head):
        """``e(H(u)/C)``: max hop distance from the head to any member,
        measured inside the cluster-induced subgraph.

        Served from the cached batched sweep: label-constrained expansion
        yields exactly the induced-subgraph distances, because every
        traversed edge has both endpoints inside the cluster.  Raises
        :class:`TopologyError` when the graph changed under the
        clustering so that members are missing or cut off from the head.
        """
        position = self._head_position(head)
        csr, _labels, ecc, reach, row_of = self._cluster_sweep()
        row = int(row_of[position])
        if row < 0 or int(reach[row]) != int(self._sizes[position]):
            index_of = csr.index_of
            missing = [node for node in self.clusters[head]
                       if node not in index_of]
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
        return int(self._head_eccentricities().sum()) / len(self.heads)

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
        self._head_eccentricities()  # raises if a cluster is disconnected
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


def _validated_rows(graph, parents):
    """``(nodes, rows)`` for a ``{node: parent}`` map: the nodes in
    parents order and each node's parent position.

    Raises :class:`TopologyError` unless the parents cover exactly the
    graph's nodes and every parent is the node itself or a neighbor,
    which is one vectorized membership test over the snapshot's rows.
    Parents that follow the snapshot's rows keep them as positions.
    """
    if set(parents) != set(graph.nodes):
        raise TopologyError("parents must cover exactly the graph's nodes")
    csr = graph.to_csr()
    index = csr.index_of
    nodes = tuple(parents)
    count = len(nodes)
    if nodes == csr.ids:
        nodes = csr.ids
        own = np.arange(count, dtype=np.int64)
    else:
        own = np.fromiter((index[node] for node in nodes), dtype=np.int64,
                          count=count)
    up = np.fromiter((index.get(parent, -1) for parent in parents.values()),
                     dtype=np.int64, count=count)
    for i in np.flatnonzero((up != own) & ~csr.has_edges(own, up))[:1]:
        node = nodes[i]
        raise TopologyError(
            f"parent of {node!r} is {parents[node]!r}, which is not "
            "a neighbor")
    if nodes is csr.ids:
        return nodes, up
    position = np.empty(count, dtype=np.int64)
    position[own] = np.arange(count)
    return nodes, position[up]


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
