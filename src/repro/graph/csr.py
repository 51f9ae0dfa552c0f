"""Frozen compressed-sparse-row adjacency snapshots.

A :class:`~repro.graph.graph.Graph` is one :class:`CSRAdjacency` plus
the identifier-world queries of the paper's model over it; the bulk
analytics of the evaluation workloads (Definition-1 densities over every
node, degree vectors, whole-edge sweeps) read the arrays directly:

* ``indptr`` / ``indices`` are the standard CSR arrays (``int32``), with
  each row's neighbor indices **sorted ascending** -- the invariant the
  vectorized ``searchsorted`` intersections rely on;
* ``ids`` maps row index -> node identifier and ``index_of`` is the
  inverse, so callers can move between the array world and the
  identifier world without per-edge Python loops;
* the snapshot is frozen: the arrays are marked non-writeable and derived
  quantities (the triangle counts) are memoized on it,
  so repeated analytics over an unchanged graph cost O(1) after the first
  call.

Every snapshot is built from a canonical undirected pair array
(:meth:`CSRAdjacency.from_pairs`), by each ``Graph`` constructor and by
the dynamic subsystem for every mobility window.

The triangle counts (Definition 1's numerator) are one array pass with
no Python loop over nodes or edges: edges point up a degree ranking,
each probes the forward list of one endpoint with the candidates of the
other, and the probed lists of a whole block of rows sit in one
``block x n`` boolean mark matrix.  Two module budgets bound its memory
at any graph size -- :data:`_MARK_BUDGET` bytes of marks (the block is
also capped at ``n`` rows, so a 1000-node graph takes one block of 1 MB)
and :data:`_TRIANGLE_CHUNK` candidates expanded at once.
"""

import numpy as np

from repro.util.errors import TopologyError

# The two memory budgets of the triangle count: the bytes of its
# ``block x n`` boolean mark matrix (8 MiB: one block for graphs up to
# ~2900 nodes, ~1200 blocks at 10^5), and the candidates it expands at
# once (a few tens of MB of temporaries at any graph size).
_MARK_BUDGET = 8 * 2**20
_TRIANGLE_CHUNK = 2_000_000


class CSRAdjacency:
    """An immutable CSR view of an undirected graph.

    Rows are node indices ``0..n-1`` in ``ids`` order; ``indices[indptr[i]:
    indptr[i+1]]`` are the neighbors of row ``i``, sorted ascending.
    """

    __slots__ = ("indptr", "indices", "ids", "_index_of", "_triangles")

    def __init__(self, indptr, indices, ids):
        indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        ids = tuple(ids)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise TopologyError("indptr and indices must be 1-d arrays")
        if len(indptr) != len(ids) + 1:
            raise TopologyError("indptr must have one entry per node plus one")
        indptr.flags.writeable = False
        indices.flags.writeable = False
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "_index_of", None)
        object.__setattr__(self, "_triangles", None)

    def __setattr__(self, name, value):
        raise AttributeError("CSRAdjacency is frozen")

    @property
    def index_of(self):
        """Node identifier -> row index, built lazily.

        Million-node snapshots that only ever serve array analytics never
        pay for the Python dict; identifier-world callers build it on
        first use.
        """
        if self._index_of is None:
            object.__setattr__(
                self, "_index_of", {node: i for i, node in enumerate(self.ids)}
            )
        return self._index_of

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_pairs(cls, lo, hi, ids):
        """Snapshot from canonical undirected index pairs.

        ``lo`` / ``hi`` are equal-length integer arrays with ``lo < hi``
        per entry and no duplicate pairs; ``ids`` maps index -> node
        identifier and fixes ``n`` (isolated nodes are rows with empty
        neighbor lists).
        """
        ids = list(ids)
        n = len(ids)
        src = np.concatenate((lo, hi)).astype(np.int64)
        dst = np.concatenate((hi, lo)).astype(np.int64)
        # Sorting the scalar keys ``row * n + col`` orders rows and, within
        # each row, the neighbor indices ascending -- cheaper than an
        # argsort and gather, let alone a two-key lexsort.
        keys = src * n
        keys += dst
        keys.sort()
        indices = (keys % n).astype(np.int32)
        degrees = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(indptr, indices, ids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def edge_count(self):
        """Number of undirected edges."""
        return int(self.indptr[-1]) // 2

    def degrees(self):
        """Degree of every row, as an ``int64`` array."""
        return np.diff(self.indptr.astype(np.int64))

    def neighbors_of(self, index):
        """Read-only array of row ``index``'s neighbor indices (ascending)."""
        return self.indices[self.indptr[index]:self.indptr[index + 1]]

    def has_edge(self, i, j):
        """True iff rows ``i`` and ``j`` are adjacent (binary search)."""
        row = self.neighbors_of(i)
        pos = int(np.searchsorted(row, j))
        return pos < len(row) and int(row[pos]) == j

    def has_edges(self, rows, cols):
        """Vectorized :meth:`has_edge` over equal-length row/column arrays.

        A lockstep binary search over the rows' sorted neighbor slices:
        O(k log δ) time and O(k) memory for ``k`` queries, with no
        temporary proportional to the edge count.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if not self.indices.size:
            return np.zeros(rows.shape, dtype=bool)
        last = self.indices.size - 1
        lo = self.indptr[rows].astype(np.int64)
        end = self.indptr[rows + 1].astype(np.int64)
        hi = end.copy()
        active = lo < hi
        while active.any():
            mid = (lo + hi) >> 1
            right = active & (self.indices[np.minimum(mid, last)] < cols)
            np.copyto(lo, mid + 1, where=right)
            np.copyto(hi, mid, where=active & ~right)
            active = lo < hi
        return (lo < end) & (self.indices[np.minimum(lo, last)] == cols)

    def edge_arrays(self):
        """Undirected edges as index arrays ``(u, v)`` with ``u < v``.

        Rows come out in CSR order (by ``u``, then ascending ``v``), the
        order of ``Graph.edges``.
        """
        n = len(self.ids)
        degrees = self.degrees()
        row = np.repeat(np.arange(n, dtype=np.int64), degrees)
        col = self.indices.astype(np.int64)
        mask = row < col
        return row[mask], col[mask]

    # ------------------------------------------------------------------
    # triangle counting (Definition 1's numerator)
    # ------------------------------------------------------------------

    def triangle_counts(self):
        """Per-node triangle counts, memoized.

        A node's triangle count is the number of edges among its
        neighbors -- exactly the extra links of Definition 1.  Edges are
        oriented toward the higher degree-rank endpoint, so each triangle
        is found exactly once, as the forward-forward intersection of its
        lowest-ranked edge; the triangle then credits all three corners.

        Each edge expands candidates from its endpoint with the smaller
        forward list and probes the other endpoint's list.  Edges are
        sorted by probed endpoint, and the probed endpoints are taken a
        block of consecutive rows at a time: one ``block x n`` boolean
        mark matrix holds the forward lists of the whole block, so a
        candidate ``w`` of an edge probing ``other`` is one gather at
        ``(other - base) * n + w``.  The block is capped at ``n`` rows
        and at :data:`_MARK_BUDGET` bytes, and inside a block the
        candidate expansion runs in chunks of :data:`_TRIANGLE_CHUNK`, so
        peak memory is bounded by the two budgets at any graph size.
        """
        if self._triangles is not None:
            return self._triangles
        n = len(self.ids)
        degrees = self.degrees()
        col = self.indices
        row = np.repeat(np.arange(n, dtype=np.int32), degrees)
        # Degree-ascending rank (ties by index): orienting every edge
        # toward the higher rank makes each triangle appear exactly once,
        # as the forward-forward intersection of its lowest-ranked edge.
        rank_of = np.empty(n, dtype=np.int32)
        rank_of[np.lexsort((np.arange(n), degrees))] = np.arange(
            n, dtype=np.int32)
        forward = rank_of[col] > rank_of[row]
        eu = row[forward].astype(np.int64)
        ev = col[forward]
        tri = (_forward_triangles(n, eu, ev) if eu.size
               else np.zeros(n, dtype=np.int64))
        tri.flags.writeable = False
        object.__setattr__(self, "_triangles", tri)
        return tri

    def __repr__(self):
        return f"CSRAdjacency(n={len(self.ids)}, m={self.edge_count()})"


def _forward_triangles(n, eu, ev):
    """Per-row triangle counts from the forward edges ``eu -> ev``.

    ``eu`` is ascending, so row ``u``'s forward list is a contiguous run
    of ``ev``; see :meth:`CSRAdjacency.triangle_counts` for the scheme.
    Candidate positions and mark-matrix offsets fit ``int32``: the first
    stay below the forward edge count, the second below ``block * n <=
    max(n, _MARK_BUDGET)``.
    """
    fdeg = np.bincount(eu, minlength=n)
    findptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fdeg, out=findptr[1:])
    # Candidates come from the endpoint with the smaller forward list;
    # the other endpoint's forward list is the probed set.  The order
    # within one probed endpoint's edges is immaterial.
    take_v = fdeg[ev] < fdeg[eu]
    small = np.where(take_v, ev, eu)
    other = np.where(take_v, eu, ev)
    order = np.argsort(other)
    small = small[order]
    other = other[order]
    counts = fdeg[small]
    cum = np.zeros(small.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    block = max(1, min(n, _MARK_BUDGET // n))
    mark = np.zeros(block * n, dtype=bool)
    bases = range(0, n, block)
    bounds = np.append(np.searchsorted(other, bases), small.size).tolist()
    tri = np.zeros(n, dtype=np.int64)
    for base, first, last in zip(bases, bounds, bounds[1:]):
        if first == last:
            continue
        top = min(base + block, n)
        # Row ``o - base`` of the mark matrix is the forward list of o.
        marked = np.repeat(np.arange(0, (top - base) * n, n), fdeg[base:top])
        marked += ev[findptr[base]:findptr[top]]
        mark[marked] = True
        start = first
        while start < last:
            end = int(np.searchsorted(cum, cum[start] + _TRIANGLE_CHUNK,
                                      side="right")) - 1
            end = min(max(end, start + 1), last)
            total = int(cum[end] - cum[start])
            if total:
                chunk = counts[start:end]
                local = cum[start:end] - cum[start]
                # Candidate positions in ``ev``, then (in place) the
                # candidates themselves.
                w = np.repeat((findptr[small[start:end]] - local)
                              .astype(np.int32), chunk)
                w += np.arange(total, dtype=np.int32)
                ev.take(w, out=w)
                probe = np.repeat(((other[start:end] - base) * n)
                                  .astype(np.int32), chunk)
                probe += w
                hit_at = np.flatnonzero(mark.take(probe))
                del probe
                # Each hit credits its corner, and each edge's tally of
                # hits (a segment sum) credits both its endpoints.
                np.add.at(tri, w.take(hit_at), 1)
                edge_hits = np.diff(
                    np.searchsorted(hit_at, np.append(local, total)))
                np.add.at(tri, small[start:end], edge_hits)
                np.add.at(tri, other[start:end], edge_hits)
            start = end
        mark[marked] = False
    return tri
