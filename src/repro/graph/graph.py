"""Undirected graph with the neighborhood vocabulary of the paper.

The paper's model (Section 3): a set ``V`` of nodes with unique identifiers;
``Np`` is the 1-neighborhood of ``p`` (``p`` itself excluded); communication
is bidirectional; ``N^i_p`` is the i-neighborhood.  This module implements
that model directly, with the symmetry invariant enforced on every mutation.

Two construction regimes coexist:

* incremental (``add_node`` / ``add_edge`` / ``add_edges_from``), for
  the protocol simulations that churn single edges and for small
  hand-built shapes -- ``add_edges_from`` fills each adjacency set in
  one per-node ``update``, never per edge;
* bulk, CSR-first (``from_pair_array`` / ``from_pair_chunks``), for the
  evaluation workloads that ingest a whole pair array or pair stream:
  the graph carries only the frozen CSR snapshot, and the dict
  adjacency is materialized *lazily* from it on first dict-shaped
  access, so read-only consumers (densities, elections, traversals)
  never pay for per-node Python sets.  Self-loop rejection and the
  symmetry invariant hold exactly as on the incremental path.

A graph can also be *rebased* onto a new snapshot (``adopt_csr``): the
dynamic subsystem installs each mobility window's snapshot as the
structure of the same live object and drops the dict, which is rebuilt
lazily as above.  The lazily built sets hold the same neighbors, filled
in the same ascending order, as an ``add_edge`` loop over the pairs in
lexicographic order, and ``neighbors`` iterates identically on either
backend -- so a CSR-first graph is indistinguishable from an
incrementally built one.

``to_csr`` exposes a frozen :class:`~repro.graph.csr.CSRAdjacency`
snapshot for array-speed analytics; it is built on first use, cached, and
invalidated by any mutation, so repeated reads over an unchanged graph
reuse it in O(1).

Pickling is payload-aware: lazy graphs ship their compact int32 pair
arrays; plain dict graphs pickle their dict adjacency.
"""

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.util.errors import TopologyError


class Graph:
    """An undirected graph over hashable node identifiers.

    Adjacency is stored as ``dict[node, set[node]]`` (built lazily from
    the CSR snapshot for bulk-built and rebased graphs).  Self-loops are
    rejected (the paper requires ``p not in Np``) and edges are always
    symmetric (``q in Np  iff  p in Nq``), on the incremental and the bulk
    construction paths alike.
    """

    def __init__(self, nodes=(), edges=()):
        self._adj = {}
        self._csr = None
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # adjacency backend (eager dict, or lazy behind a CSR snapshot)
    # ------------------------------------------------------------------

    @property
    def _adj(self):
        if self._adj_map is None:
            self._materialize_adj()
        return self._adj_map

    @_adj.setter
    def _adj(self, value):
        self._adj_map = value

    def _materialize_adj(self):
        """Build the dict adjacency from the CSR snapshot (lazy graphs).

        Bulk-built graphs (:meth:`from_pair_array`,
        :meth:`from_pair_chunks`), graphs unpickled from their pair arrays
        and graphs rebased by :meth:`adopt_csr` carry only the CSR arrays
        until a caller needs dict semantics.  Neighbor sets
        are filled in ascending row order -- the insertion sequence of an
        ``add_edge`` loop (or :meth:`add_edges_from`) over the same pairs
        in lexicographic order, so the sets equal that build's,
        iteration order included.
        """
        csr = self._csr
        if csr is None:
            raise TopologyError("lazy graph has no CSR snapshot to materialize")
        ids = csr.ids
        indptr = csr.indptr.tolist()
        flat = csr.indices.tolist()
        adj = {}
        for i, node in enumerate(ids):
            adj[node] = {ids[j] for j in flat[indptr[i] : indptr[i + 1]]}
        self._adj_map = adj

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(self, node):
        """Add ``node`` if not already present."""
        if node not in self._adj:
            self._adj[node] = set()
            self._csr = None

    def add_edge(self, u, v):
        """Add the undirected edge ``{u, v}``, creating endpoints as needed."""
        if u == v:
            raise TopologyError(f"self-loop on node {u!r} is not allowed")
        self.add_node(u)
        self.add_node(v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._csr = None

    def add_edges_from(self, edges):
        """Add every edge of ``edges`` in bulk.

        ``edges`` is either an ``(m, 2)`` integer array (the
        ``pairs_within_range`` shape; entries are node identifiers) or any
        iterable of ``(u, v)`` pairs.  The array path groups the directed
        endpoints with one vectorized sort and fills each adjacency set in
        a single per-node ``update`` -- no per-edge Python loop; new nodes
        are created in ascending identifier order.  Self-loops raise
        :class:`TopologyError` and duplicates are idempotent, exactly as
        with repeated :meth:`add_edge` calls.
        """
        if isinstance(edges, np.ndarray):
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise TopologyError("edge array must have shape (m, 2)")
            if not np.issubdtype(edges.dtype, np.integer):
                raise TopologyError(
                    "edge array entries must be integer node identifiers")
            if edges.size == 0:
                return
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if (lo == hi).any():
                node = int(lo[int(np.argmax(lo == hi))])
                raise TopologyError(
                    f"self-loop on node {node!r} is not allowed")
            # Canonical (lo, hi) lexicographic order: the merge result is
            # then independent of the caller's row order.
            order = np.lexsort((hi, lo))
            lo, hi = lo[order], hi[order]
            for node in np.unique(edges).tolist():
                self.add_node(node)
            self._bulk_merge(lo, hi)
        else:
            for u, v in edges:
                self.add_edge(u, v)

    @classmethod
    def from_pair_array(cls, pairs, node_ids):
        """Build a CSR-first graph from an index-pair array.

        ``pairs`` is an ``(m, 2)`` integer array of *positions* (the
        ``pairs_within_range`` output); ``node_ids`` is either the node
        count ``n`` (identifiers are then ``0..n-1``) or a sequence
        mapping position -> identifier, whose length fixes ``n`` so
        isolated nodes are preserved.  Pairs are canonicalized and
        deduplicated (the dedup sort is skipped when they already are,
        as ``pairs_within_range`` guarantees); self-loops and
        out-of-range positions raise :class:`TopologyError`.  The graph
        carries just the CSR snapshot, so a following :meth:`to_csr` is
        free and the dict adjacency is built only if a caller needs it.
        """
        ids, n = _node_ids(node_ids)
        pairs = np.asarray(pairs)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2).astype(np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise TopologyError("pairs must be an (m, 2) array")
        if not np.issubdtype(pairs.dtype, np.integer):
            raise TopologyError("pairs must contain integer positions")
        if len(pairs):
            if int(pairs.min()) < 0 or int(pairs.max()) >= n:
                raise TopologyError(
                    f"pair positions must lie in [0, {n}), got range "
                    f"[{int(pairs.min())}, {int(pairs.max())}]")
            lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
            hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
            if (lo == hi).any():
                pos = int(lo[int(np.argmax(lo == hi))])
                raise TopologyError(
                    f"self-loop on node {pos!r} is not allowed")
            # Sort + dedup through a scalar key: one int64 sort instead of
            # a slow structured-dtype row unique -- and none at all when
            # the keys are already strictly increasing.
            keys = lo * n + hi
            if not (keys[1:] > keys[:-1]).all():
                keys = np.unique(keys)
                lo, hi = np.divmod(keys, n)
        else:
            lo = hi = np.empty(0, dtype=np.int64)
        return cls._from_csr(CSRAdjacency.from_pairs(lo, hi, ids))

    @classmethod
    def from_pair_chunks(cls, chunks, node_ids):
        """Build a graph from a stream of canonical index-pair chunks.

        ``chunks`` yields ``(k, 2)`` integer arrays of *positions* whose
        concatenation must be strictly lexicographically increasing with
        ``i < j`` per row -- the :func:`~repro.graph.geometry.chunk_pairs`
        contract, which also rules out duplicates and self-loops.
        ``node_ids`` is as in :meth:`from_pair_array`.

        Only the compact ``int32`` pair arrays are accumulated (never a
        chunk's candidate expansion, and never a per-edge Python loop),
        and the result carries just the CSR snapshot, as a
        :meth:`from_pair_array` build does, so a 10^6-node build stays
        within a few hundred MB.
        """
        ids, n = _node_ids(node_ids)
        if n >= 2**31:
            raise TopologyError("chunked construction is limited to int32 rows")
        lo_parts = []
        hi_parts = []
        last_key = -1
        for pairs in chunks:
            pairs = np.asarray(pairs)
            if pairs.size == 0:
                continue
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise TopologyError("pair chunks must be (k, 2) arrays")
            if not np.issubdtype(pairs.dtype, np.integer):
                raise TopologyError("pair chunks must contain integer positions")
            if int(pairs.min()) < 0 or int(pairs.max()) >= n:
                raise TopologyError(
                    f"pair positions must lie in [0, {n}), got range "
                    f"[{int(pairs.min())}, {int(pairs.max())}]"
                )
            lo = pairs[:, 0].astype(np.int64)
            hi = pairs[:, 1].astype(np.int64)
            keys = lo * n + hi
            bad = (lo >= hi).any() or int(keys[0]) <= last_key
            if not bad and len(keys) > 1:
                bad = bool((np.diff(keys) <= 0).any())
            if bad:
                raise TopologyError(
                    "pair chunks must be canonical: i < j rows, strictly "
                    "lexicographically increasing across the whole stream"
                )
            last_key = int(keys[-1])
            lo_parts.append(lo.astype(np.int32))
            hi_parts.append(hi.astype(np.int32))
        if lo_parts:
            lo = np.concatenate(lo_parts)
            hi = np.concatenate(hi_parts)
        else:
            lo = hi = np.empty(0, dtype=np.int32)
        return cls._from_csr(CSRAdjacency.from_pairs(lo, hi, ids))

    @classmethod
    def _from_csr(cls, csr):
        """A graph carrying only ``csr``; the dict adjacency is lazy."""
        graph = cls()
        graph._adj_map = None
        graph._csr = csr
        return graph

    def _bulk_merge(self, lo, hi):
        """Merge canonical identifier pairs into the adjacency sets, one
        node at a time.

        Callers pass the pairs in (lo, hi) lexicographic order; each set
        then receives its neighbors smaller-endpoint-first in pair order
        -- the same insertion sequence a pair-by-pair ``add_edge`` loop
        over those sorted pairs would produce, which keeps iteration
        order (and everything downstream of it) identical to the
        incremental path.
        """
        src = np.concatenate((hi, lo))
        dst = np.concatenate((lo, hi))
        order = np.argsort(src, kind="stable")
        src = src[order]
        dst = dst[order]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        ends = np.r_[starts[1:], src.size]
        owners = src[starts].tolist()
        dst_list = dst.tolist()
        adj = self._adj
        for owner, s, e in zip(owners, starts.tolist(), ends.tolist()):
            adj[owner].update(dst_list[s:e])
        self._csr = None

    def remove_edge(self, u, v):
        """Remove the undirected edge ``{u, v}``; missing edges are errors."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError:
            raise TopologyError(f"edge ({u!r}, {v!r}) not in graph") from None
        self._csr = None

    def remove_node(self, node):
        """Remove ``node`` and all its incident edges."""
        if node not in self._adj:
            raise TopologyError(f"node {node!r} not in graph")
        for neighbor in self._adj[node]:
            self._adj[neighbor].discard(node)
        del self._adj[node]
        self._csr = None

    def copy(self):
        """Return an independent copy of this graph."""
        clone = Graph()
        clone._adj_map = (
            None
            if self._adj_map is None
            else {node: set(nbrs) for node, nbrs in self._adj_map.items()}
        )
        # The snapshot is immutable and describes the same structure, so
        # the copy can share it until either side mutates.
        clone._csr = self._csr
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, node):
        if self._adj_map is None:
            return node in self._csr.index_of
        return node in self._adj_map

    def __len__(self):
        if self._adj_map is None:
            return len(self._csr.ids)
        return len(self._adj_map)

    def __iter__(self):
        if self._adj_map is None:
            return iter(self._csr.ids)
        return iter(self._adj_map)

    def __getstate__(self):
        # Payload-aware pickling: the compact int32 pair arrays for lazy
        # graphs; the dict adjacency otherwise (the cached snapshot is
        # dropped -- cheap to rebuild, bulky on the wire).
        if self._adj_map is None:
            csr = self._csr
            row, col = csr.edge_arrays()
            ids = csr.ids
            if ids == tuple(range(len(ids))):
                ids = len(ids)
            return {"_pairs": (row.astype(np.int32), col.astype(np.int32), ids)}
        return {"_adj": self._adj_map}

    def __setstate__(self, state):
        if "_pairs" in state:
            lo, hi, ids = state["_pairs"]
            if isinstance(ids, int):
                ids = range(ids)
            self._adj_map = None
            self._csr = CSRAdjacency.from_pairs(
                lo.astype(np.int64), hi.astype(np.int64), ids
            )
        else:
            self._adj_map = state["_adj"]
            self._csr = None

    @property
    def nodes(self):
        """All node identifiers, in insertion order."""
        if self._adj_map is None:
            return list(self._csr.ids)
        return list(self._adj_map)

    @property
    def edges(self):
        """Each undirected edge once, as a sorted-by-insertion (u, v) pair.

        Emits ``(u, v)`` from the earlier-inserted endpoint: since nodes
        are scanned in insertion order, an insertion-rank check picks each
        edge exactly once without materializing a ``seen`` set of tuples.
        """
        rank = {node: i for i, node in enumerate(self._adj)}
        result = []
        for u, nbrs in self._adj.items():
            ru = rank[u]
            for v in nbrs:
                if ru < rank[v]:
                    result.append((u, v))
        return result

    def to_csr(self):
        """The frozen :class:`~repro.graph.csr.CSRAdjacency` snapshot.

        Built from the current adjacency on first call and cached; any
        mutation (node or edge, incremental or bulk) invalidates the cache
        so the next call rebuilds.  Bulk-built graphs carry their
        snapshot from construction.
        """
        if self._csr is None:
            self._csr = CSRAdjacency.from_dict(self._adj)
        return self._csr

    def adopt_csr(self, csr, added=0, removed=0, joined=0, left=0):
        """Rebase the graph onto ``csr``: the snapshot becomes its structure.

        The dynamic subsystem builds each window's snapshot from its
        maintained edge arrays and installs it here, so the same live
        object (and every cache keyed on it) follows the topology without
        per-edge dict updates.  The dict adjacency is dropped and rebuilt
        from the snapshot on the next dict-shaped access.  As a cheap
        guard, the snapshot must have this graph's node and edge counts
        after ``joined``/``left`` nodes and ``added``/``removed`` edges;
        the full equivalence is the property suite's job.
        """
        if (len(csr) != len(self) + joined - left
                or csr.edge_count() != self.edge_count() + added - removed):
            raise TopologyError(
                "adopted CSR snapshot does not match the graph's shape "
                "after the delta")
        self._adj_map = None
        self._csr = csr

    def has_edge(self, u, v):
        """True iff the undirected edge ``{u, v}`` exists."""
        if self._adj_map is None:
            index_of = self._csr.index_of
            if u not in index_of or v not in index_of:
                return False
            return self._csr.has_edge(index_of[u], index_of[v])
        return u in self._adj_map and v in self._adj_map[u]

    def neighbors(self, node):
        """``Np``: the 1-neighborhood of ``node`` (node itself excluded)."""
        if self._adj_map is None:
            csr = self._csr
            index = csr.index_of.get(node)
            if index is None:
                raise TopologyError(f"node {node!r} not in graph")
            ids = csr.ids
            # Built in ascending row order like a materialized set, then
            # copied like the dict branch's ``set(...)``: a copy re-lays
            # the table, and only the same two steps iterate identically.
            return set({ids[j] for j in csr.neighbors_of(index).tolist()})
        if node not in self._adj_map:
            raise TopologyError(f"node {node!r} not in graph")
        return set(self._adj_map[node])

    def closed_neighbors(self, node):
        """``{p} ∪ Np``: node plus its 1-neighborhood."""
        closed = self.neighbors(node)
        closed.add(node)
        return closed

    def degree(self, node):
        """``|Np|``."""
        if self._adj_map is None:
            csr = self._csr
            index = csr.index_of.get(node)
            if index is None:
                raise TopologyError(f"node {node!r} not in graph")
            return int(csr.indptr[index + 1] - csr.indptr[index])
        if node not in self._adj_map:
            raise TopologyError(f"node {node!r} not in graph")
        return len(self._adj_map[node])

    def max_degree(self):
        """``δ``: the maximum degree over all nodes (0 for an empty graph)."""
        if self._adj_map is None:
            degrees = self._csr.degrees()
            return int(degrees.max()) if len(degrees) else 0
        if not self._adj_map:
            return 0
        return max(len(nbrs) for nbrs in self._adj_map.values())

    def k_neighborhood(self, node, k):
        """``N^k_p``: every node within ``k`` hops of ``node``, excluding it.

        Matches the paper's recursive definition
        ``N^i_p = N^{i-1}_p ∪ {r | ∃q ∈ N^{i-1}_p, r ∈ Nq}`` (minus ``p``).
        """
        if k < 1:
            raise TopologyError(f"k must be >= 1, got {k}")
        frontier = self.neighbors(node)
        reached = set(frontier)
        for _ in range(k - 1):
            frontier = {r for q in frontier for r in self._adj[q]} - reached - {node}
            if not frontier:
                break
            reached |= frontier
        reached.discard(node)
        return reached

    def edge_count(self):
        """Number of undirected edges (degree sum halved; no edge list)."""
        if self._adj_map is None:
            return self._csr.edge_count()
        return sum(len(nbrs) for nbrs in self._adj_map.values()) // 2

    def induced_subgraph(self, nodes):
        """The subgraph induced by ``nodes`` (unknown nodes are errors)."""
        keep = set(nodes)
        missing = keep - set(self._adj)
        if missing:
            raise TopologyError(f"nodes not in graph: {sorted(missing, key=repr)}")
        sub = Graph(nodes=keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep:
                    sub._adj[u].add(v)
        return sub

    def check_symmetry(self):
        """Verify the bidirectional-links invariant; raise if violated.

        Exists for tests and for defensive validation after bulk mutations;
        the mutating methods preserve symmetry by construction.
        """
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u not in self._adj.get(v, ()):
                    raise TopologyError(f"asymmetric edge: {u!r} -> {v!r}")

    def __repr__(self):
        return f"Graph(n={len(self)}, m={self.edge_count()})"


def _node_ids(node_ids):
    """``(ids, n)`` of a bulk build's ``node_ids`` argument: a node count
    (identifiers ``0..n-1``) or a sequence of unique identifiers."""
    if isinstance(node_ids, (int, np.integer)):
        n = int(node_ids)
        return range(n), n
    ids = list(node_ids)
    if len(set(ids)) != len(ids):
        raise TopologyError("node identifiers must be unique")
    return ids, len(ids)
