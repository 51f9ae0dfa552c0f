"""Undirected graph with the neighborhood vocabulary of the paper.

The paper's model (Section 3): a set ``V`` of nodes with unique identifiers;
``Np`` is the 1-neighborhood of ``p`` (``p`` itself excluded); communication
is bidirectional; ``N^i_p`` is the i-neighborhood.  A :class:`Graph` is
one frozen :class:`~repro.graph.csr.CSRAdjacency` snapshot plus the
identifier-world queries of that model over it, so symmetry holds by
construction and self-loops are rejected at every build.

Every constructor ends in a snapshot:

* ``Graph(nodes, edges)`` for small hand-built shapes and tests;
* ``from_pair_array`` / ``from_pair_chunks`` for the evaluation
  workloads that ingest a whole pair array or a pair stream.

A graph never changes edge by edge.  The dynamic subsystem *rebases* it
instead (``adopt_csr``): each mobility window's snapshot becomes the
structure of the same live object, so every cache keyed on the graph
follows the topology.  ``to_csr`` hands the snapshot to the array-speed
analytics in O(1), and a graph pickles as its compact int32 pair arrays.
"""

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.util.errors import TopologyError


class Graph:
    """An undirected graph over hashable node identifiers.

    Rows of the snapshot are nodes in first-seen order.  Self-loops are
    rejected (the paper requires ``p not in Np``) and duplicate or
    reversed edges are idempotent.
    """

    def __init__(self, nodes=(), edges=()):
        """``nodes`` first, then each edge endpoint not seen yet, in order
        of appearance."""
        index = {}
        for node in nodes:
            index.setdefault(node, len(index))
        pairs = []
        for u, v in edges:
            if u == v:
                raise TopologyError(f"self-loop on node {u!r} is not allowed")
            pairs.append((index.setdefault(u, len(index)),
                          index.setdefault(v, len(index))))
        self._csr = _pair_snapshot(
            np.array(pairs, dtype=np.int64).reshape(-1, 2), list(index))

    @classmethod
    def from_pair_array(cls, pairs, node_ids):
        """Build a graph from an index-pair array.

        ``pairs`` is an ``(m, 2)`` integer array of *positions* (the
        ``pairs_within_range`` output); ``node_ids`` is either the node
        count ``n`` (identifiers are then ``0..n-1``) or a sequence
        mapping position -> identifier, whose length fixes ``n`` so
        isolated nodes are preserved.  Pairs are canonicalized and
        deduplicated (the dedup sort is skipped when they already are,
        as ``pairs_within_range`` guarantees); self-loops and
        out-of-range positions raise :class:`TopologyError`.
        """
        return cls._from_csr(_pair_snapshot(pairs, _node_ids(node_ids)))

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
        so a 10^6-node build stays within a few hundred MB.
        """
        ids = _node_ids(node_ids)
        n = len(ids)
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
        """A graph whose structure is ``csr``."""
        graph = cls.__new__(cls)
        graph._csr = csr
        return graph

    def __getstate__(self):
        # The compact int32 pair arrays; the snapshot is rebuilt on load.
        csr = self._csr
        row, col = csr.edge_arrays()
        ids = csr.ids
        if ids == tuple(range(len(ids))):
            ids = len(ids)
        return {"_pairs": (row.astype(np.int32), col.astype(np.int32), ids)}

    def __setstate__(self, state):
        lo, hi, ids = state["_pairs"]
        if isinstance(ids, int):
            ids = range(ids)
        self._csr = CSRAdjacency.from_pairs(
            lo.astype(np.int64), hi.astype(np.int64), ids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, node):
        return node in self._csr.index_of

    def __len__(self):
        return len(self._csr.ids)

    def __iter__(self):
        return iter(self._csr.ids)

    def _row(self, node):
        """The snapshot row of ``node``; unknown nodes are errors."""
        row = self._csr.index_of.get(node)
        if row is None:
            raise TopologyError(f"node {node!r} not in graph")
        return row

    @property
    def nodes(self):
        """All node identifiers, in row order."""
        return list(self._csr.ids)

    @property
    def edges(self):
        """Each undirected edge once, as ``(u, v)`` in CSR order (by the
        row of ``u``, then ascending row of ``v``)."""
        ids = self._csr.ids
        row, col = self._csr.edge_arrays()
        return [(ids[u], ids[v]) for u, v in zip(row.tolist(), col.tolist())]

    def to_csr(self):
        """The frozen :class:`~repro.graph.csr.CSRAdjacency` snapshot."""
        return self._csr

    def adopt_csr(self, csr, added=0, removed=0, joined=0, left=0):
        """Rebase the graph onto ``csr``: the snapshot becomes its structure.

        The dynamic subsystem builds each window's snapshot from its
        maintained edge arrays and installs it here, so the same live
        object (and every cache keyed on it) follows the topology.  As a
        cheap guard, the snapshot must have this graph's node and edge
        counts after ``joined``/``left`` nodes and ``added``/``removed``
        edges; the full equivalence is the property suite's job.
        """
        if (len(csr) != len(self) + joined - left
                or csr.edge_count() != self.edge_count() + added - removed):
            raise TopologyError(
                "adopted CSR snapshot does not match the graph's shape "
                "after the delta")
        self._csr = csr

    def has_edge(self, u, v):
        """True iff the undirected edge ``{u, v}`` exists."""
        index_of = self._csr.index_of
        if u not in index_of or v not in index_of:
            return False
        return self._csr.has_edge(index_of[u], index_of[v])

    def neighbors(self, node):
        """``Np``: the 1-neighborhood of ``node`` (node itself excluded)."""
        csr = self._csr
        ids = csr.ids
        # The lossy channels draw their RNG in this set's iteration order:
        # a comprehension over ascending rows, then a copy (which re-lays
        # the table).  Changing either step reorders every lossy trace.
        return set({ids[j] for j in csr.neighbors_of(self._row(node)).tolist()})

    def closed_neighbors(self, node):
        """``{p} ∪ Np``: node plus its 1-neighborhood."""
        closed = self.neighbors(node)
        closed.add(node)
        return closed

    def degree(self, node):
        """``|Np|``."""
        indptr = self._csr.indptr
        row = self._row(node)
        return int(indptr[row + 1] - indptr[row])

    def max_degree(self):
        """``δ``: the maximum degree over all nodes (0 for an empty graph)."""
        degrees = self._csr.degrees()
        return int(degrees.max()) if len(degrees) else 0

    def k_neighborhood(self, node, k):
        """``N^k_p``: every node within ``k`` hops of ``node``, excluding it.

        Matches the paper's recursive definition
        ``N^i_p = N^{i-1}_p ∪ {r | ∃q ∈ N^{i-1}_p, r ∈ Nq}`` (minus ``p``).
        """
        if k < 1:
            raise TopologyError(f"k must be >= 1, got {k}")
        csr = self._csr
        source = self._row(node)
        reached = {source}
        frontier = reached
        for _ in range(k):
            step = set()
            for row in frontier:
                step.update(csr.neighbors_of(row).tolist())
            frontier = step - reached
            if not frontier:
                break
            reached |= frontier
        reached.discard(source)
        ids = csr.ids
        return {ids[row] for row in reached}

    def edge_count(self):
        """Number of undirected edges."""
        return self._csr.edge_count()

    def induced_subgraph(self, nodes):
        """The subgraph induced by ``nodes`` (unknown nodes are errors).

        Its nodes come in the iteration order of ``set(nodes)``; the kept
        edges are selected from the snapshot's edge arrays in one pass.
        """
        keep = list(set(nodes))
        index_of = self._csr.index_of
        missing = [node for node in keep if node not in index_of]
        if missing:
            raise TopologyError(f"nodes not in graph: {sorted(missing, key=repr)}")
        local = np.full(len(self), -1, dtype=np.int64)
        local[[index_of[node] for node in keep]] = np.arange(len(keep))
        row, col = self._csr.edge_arrays()
        row, col = local[row], local[col]
        kept = (row >= 0) & (col >= 0)
        row, col = row[kept], col[kept]
        return Graph._from_csr(CSRAdjacency.from_pairs(
            np.minimum(row, col), np.maximum(row, col), keep))

    def __repr__(self):
        return f"Graph(n={len(self)}, m={self.edge_count()})"


def _node_ids(node_ids):
    """The identifiers of a bulk build's ``node_ids`` argument: a node
    count (identifiers ``0..n-1``) or a sequence of unique identifiers."""
    if isinstance(node_ids, (int, np.integer)):
        return range(int(node_ids))
    ids = list(node_ids)
    if len(set(ids)) != len(ids):
        raise TopologyError("node identifiers must be unique")
    return ids


def _pair_snapshot(pairs, ids):
    """The snapshot of an ``(m, 2)`` array of positions into ``ids``.

    Pairs are canonicalized and deduplicated; self-loops and
    out-of-range positions raise :class:`TopologyError`.
    """
    n = len(ids)
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
            raise TopologyError(f"self-loop on node {pos!r} is not allowed")
        # Sort + dedup through a scalar key: one int64 sort instead of a
        # slow structured-dtype row unique -- and none at all when the
        # keys are already strictly increasing.
        keys = lo * n + hi
        if not (keys[1:] > keys[:-1]).all():
            keys = np.unique(keys)
            lo, hi = np.divmod(keys, n)
    else:
        lo = hi = np.empty(0, dtype=np.int64)
    return CSRAdjacency.from_pairs(lo, hi, ids)
