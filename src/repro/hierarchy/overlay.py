"""The cluster overlay graph: level l+1's topology.

Once clusters exist, hierarchical routing treats each cluster as one
super-node headed by its cluster-head.  Two heads are adjacent in the
overlay iff some member of one cluster is a physical neighbor of some
member of the other; the physical edge realizing the adjacency is the
*gateway* used to expand overlay hops back into physical paths.

Both choices hierarchical routing makes on the overlay follow a rule
stated on the physical CSR rows (``clustering.cluster_rows()``), so
neither depends on how the graph was built or how it was pickled:

* the gateway of an overlay edge is its **lowest ``(row, row)``**
  physical edge -- the smallest ``(u, v)``, ``u < v``, among the edges
  joining the two clusters;
* heads are *ranked* by their physical row, and head paths come from
  :func:`repro.graph.kernels.bfs_parents` over the rank-ordered overlay
  CSR, so a head's parent is the **smallest-row head at the previous
  BFS level**.

The whole overlay is one array pass: border edges are the CSR entries
whose endpoint labels differ, overlay edges the ``np.unique`` head-row
pairs, and ``return_index`` picks each pair's first -- lowest -- border
edge.

This is the substrate for the paper's announced future work ("we also
plan to study hierarchical self-stabilization algorithms") and for the
scalability motivation of its introduction.
"""

from dataclasses import dataclass

import numpy as np

from repro.graph import kernels
from repro.graph.generators import Topology
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError, TopologyError


@dataclass(frozen=True, eq=False)
class Overlay:
    """The overlay topology plus its row-ranked routing arrays.

    ``topology`` is the level-``l + 1`` topology (nodes in
    ``clustering.heads`` order).  ``heads`` lists the heads by ascending
    physical row; a head's position there is its *rank*, and
    ``rank_of`` inverts it.  ``indptr`` / ``indices`` are the overlay's
    CSR over ranks (neighbor ranks ascending).  For CSR entry ``p`` of
    rank ``r``, ``exits[p]`` / ``entries[p]`` is the gateway edge: a
    physical node in ``heads[r]``'s cluster and its neighbor in
    ``heads[indices[p]]``'s cluster.  Every field is a plain tuple,
    dict or ndarray, so the overlay pickles exactly.
    """

    topology: Topology
    heads: tuple
    rank_of: dict
    indptr: np.ndarray
    indices: np.ndarray
    exits: tuple
    entries: tuple

    def _rank(self, head):
        rank = self.rank_of.get(head)
        if rank is None:
            raise TopologyError(f"{head!r} is not an overlay head")
        return rank

    def bfs_parents(self, head):
        """Kernel BFS parent ranks over the overlay from ``head``."""
        parents, _dist = kernels.bfs_parents(self.indptr, self.indices,
                                             self._rank(head))
        return parents

    def head_path(self, head_src, head_dst, parents=None):
        """Head tuple ``head_src .. head_dst``; ``None`` when unreachable.

        ``parents`` is :meth:`bfs_parents` of ``head_src`` (computed when
        omitted); callers that route many pairs from one head reuse it.
        """
        if parents is None:
            parents = self.bfs_parents(head_src)
        source = self._rank(head_src)
        rank = self._rank(head_dst)
        parent_of = memoryview(parents)  # plain-int reads, no scalars
        heads = self.heads
        path = [heads[rank]]
        while rank != source:
            rank = parent_of[rank]
            if rank < 0:
                return None
            path.append(heads[rank])
        path.reverse()
        return tuple(path)


def overlay_topology(topology, clustering):
    """Build the overlay over ``clustering``'s heads.

    ``clustering`` must cluster ``topology``'s graph.  Head positions are
    inherited from the physical topology when known; head identifiers
    keep their physical tie identifiers, so another round of density
    clustering applies verbatim on the overlay.
    """
    graph = topology.graph
    if clustering.graph is not graph \
            and set(clustering.head_of) != set(graph.nodes):
        raise ConfigurationError(
            "clustering does not cover the topology's nodes")
    csr, labels = clustering.cluster_rows()
    n = len(csr)
    # Border edges, u < v, in ascending (u, v) order.
    u, v = csr.edge_arrays()
    head_u = labels[u]
    head_v = labels[v]
    border = head_u != head_v
    u, v, head_u, head_v = u[border], v[border], head_u[border], head_v[border]
    low = np.minimum(head_u, head_v)
    high = np.maximum(head_u, head_v)
    # return_index is each pair's first -- lowest (u, v) -- border edge.
    keys, first = np.unique(low * n + high, return_index=True)
    low, high = keys // n, keys % n
    u, v = u[first], v[first]
    u_low = head_u[first] == low
    exit_low = np.where(u_low, u, v)
    exit_high = np.where(u_low, v, u)

    head_rows = np.flatnonzero(labels == np.arange(n))
    count = len(head_rows)
    rank = np.full(n, -1, dtype=np.int64)
    rank[head_rows] = np.arange(count)
    rank_low, rank_high = rank[low], rank[high]
    # Both directions of every overlay edge; keys are unique, so the
    # sort is the CSR order of the rank-indexed overlay.
    src = np.concatenate((rank_low, rank_high))
    dst = np.concatenate((rank_high, rank_low))
    exit_rows = np.concatenate((exit_low, exit_high))
    entry_rows = np.concatenate((exit_high, exit_low))
    order = np.argsort(src * count + dst)
    indptr = np.zeros(count + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=count), out=indptr[1:])
    ids = csr.ids
    heads = tuple(map(ids.__getitem__, head_rows.tolist()))

    # The overlay graph keeps ``clustering.heads`` as its node order:
    # ``position[r]`` is the rank-``r`` head's place in that order.
    order_heads = list(clustering.heads)
    index_of = csr.index_of
    position = np.empty(count, dtype=np.int64)
    position[rank[[index_of[head] for head in order_heads]]] = np.arange(count)
    pos_a, pos_b = position[rank_low], position[rank_high]
    lo_pos = np.minimum(pos_a, pos_b)
    hi_pos = np.maximum(pos_a, pos_b)
    by_pos = np.argsort(lo_pos * count + hi_pos)
    pairs = np.stack((lo_pos[by_pos], hi_pos[by_pos]), axis=1)
    overlay_graph = Graph.from_pair_chunks([pairs], order_heads)

    positions = None
    if topology.positions:
        positions = {head: topology.positions[head] for head in order_heads}
    ids_map = {head: topology.ids[head] for head in order_heads}
    overlay = Topology(overlay_graph, positions=positions, ids=ids_map,
                       radius=topology.radius)
    return Overlay(
        topology=overlay,
        heads=heads,
        rank_of={head: k for k, head in enumerate(heads)},
        indptr=indptr,
        indices=dst[order].astype(np.int32),
        exits=tuple(map(ids.__getitem__, exit_rows[order].tolist())),
        entries=tuple(map(ids.__getitem__, entry_rows[order].tolist())),
    )


def gateway_for(overlay, head_a, head_b):
    """The physical edge ``(u, v)`` realizing the overlay edge, oriented
    so ``u`` lies in ``head_a``'s cluster: the lowest ``(row, row)``
    edge joining the two clusters."""
    rank_a = overlay.rank_of.get(head_a)
    rank_b = overlay.rank_of.get(head_b)
    if rank_a is not None and rank_b is not None:
        lo = int(overlay.indptr[rank_a])
        hi = int(overlay.indptr[rank_a + 1])
        p = lo + int(np.searchsorted(overlay.indices[lo:hi], rank_b))
        if p < hi and overlay.indices[p] == rank_b:
            return overlay.exits[p], overlay.entries[p]
    raise ConfigurationError(
        f"heads {head_a!r} and {head_b!r} are not overlay neighbors")
