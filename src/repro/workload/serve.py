"""Request serving: cached hierarchical routing plus the collector loop.

:func:`~repro.hierarchy.routing.hierarchical_route` decomposes every
route into three reusable pieces -- an overlay head path, one gateway
per overlay hop, and label-constrained intra-cluster legs -- and under
any realistic workload those pieces repeat across requests far more
often than whole (source, destination) pairs do.  :class:`CachedRouter`
exploits that: it memoizes

* the overlay BFS parents per source head (one
  :func:`~repro.graph.kernels.bfs_parents` sweep over the overlay's
  rank-ordered CSR each, the tree
  :meth:`~repro.hierarchy.overlay.Overlay.head_path` unwinds, so a
  head's parent is the smallest-row head at the previous BFS level
  exactly as in the uncached routine);
* a compact **per-cluster sub-CSR** (member rows ascending, neighbor
  blocks filtered to the cluster) so intra-cluster parent fan-outs are
  sweeps over cluster-sized arrays instead of graph-sized ones.  The
  renumbering is monotonic and the kernel parent rule is "smallest row
  at the previous BFS level", so every unwound leg is bit-identical to
  the label-constrained full-graph search of
  :func:`~repro.hierarchy.routing._intra_cluster_path`;
* a dense all-pairs distance matrix per cluster of at most
  :data:`DENSE_MAX_MEMBERS` members -- one level-synchronous
  multi-source sweep (boolean matrix products) covering every leg the
  cluster will ever serve; larger clusters serve their legs from
  per-source kernel BFS parents over the sub-CSR instead (same parent
  rule, same legs, memory linear in the cluster);
* the gateway orientation per ordered head pair;
* one **plan** per (source head, destination head) pair: the head
  path, the source cluster's exit gateway, the transit-cluster legs
  (references to the cached leg tuples) and the destination cluster's
  entry gateway, or ``None`` when the pair is unroutable -- so a warm
  inter-cluster request costs one plan read, two cached endpoint legs
  and one list build;
* flat BFS sweeps per *destination* (distances are symmetric, and
  skewed workloads concentrate destinations) in a bounded **LRU**
  cache -- hits move to the back of the eviction queue, so Zipf-skewed
  destination popularity keeps its hot set resident -- with hit/miss
  counters the workload family reports.  Each entry is a
  :class:`~repro.graph.traversal.DistanceSweep`: a source it already
  reached is one read, and any other lookup meets in the middle, growing
  the cached sweep and a throwaway sweep from the source a level at a
  time until they touch (about two half-radius balls instead of one
  full one).

The routes it returns are therefore exactly
``hierarchical_route(hierarchy, source, destination)`` -- the test
suite asserts equality.  :meth:`CachedRouter.route_batch` is the high
throughput entry: a plain loop over :meth:`CachedRouter.route` with
flat sampling inline in input order, emitting a :class:`ServedRequest`
stream byte-identical to routing each request with
:meth:`CachedRouter.serve` (requests are not grouped by head pair; the
plan cache already shares each pair's work across the whole run).
:func:`serve_workload` consumes generator batches directly and hands
them to the collector pipeline's batched ``process_batch`` path.
"""

import math
from collections import OrderedDict
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from repro.collectors.base import DataCollector
from repro.graph import kernels
from repro.graph.traversal import DistanceSweep
from repro.hierarchy.overlay import gateway_for
from repro.hierarchy.routing import UNREACHABLE
from repro.util.errors import ConfigurationError, TopologyError

#: Requests pulled from the generator per :meth:`CachedRouter.route_batch`
#: call in batched serving (bounds per-batch memory at any stream length).
BATCH_REQUESTS = 4096

#: Clusters with more members than this serve their legs from per-source
#: kernel BFS parents instead of a dense all-pairs distance matrix, whose
#: build holds four m x m arrays (about 11 bytes per member pair).
DENSE_MAX_MEMBERS = 1024

#: Per-source BFS parent arrays of over-cap clusters kept (LRU).
SPARSE_TREES = 64


class ServedRequest(NamedTuple):
    """The outcome of routing one request.

    ``route`` is the physical node path (``None`` when the hierarchy
    offers no route), ``head_path`` the overlay head sequence the route
    crossed (a 1-tuple for intra-cluster traffic), ``hops`` the route
    length in hops, and ``flat_hops`` the flat shortest-path length --
    ``None`` when stretch accounting was not requested for this event
    (see ``flat_every`` in :func:`serve_workload`).
    """

    request: object
    route: Optional[tuple]
    head_path: Optional[tuple]
    hops: Optional[int]
    flat_hops: Optional[int] = None


class CachedRouter:
    """Amortized hierarchical routing over one hierarchy snapshot.

    ``flat_cache`` bounds how many per-destination flat BFS sweeps are
    kept (LRU eviction), so memory stays O(cache * n) even under
    uniform destination popularity.  ``flat_hits`` / ``flat_misses``
    count cache outcomes for the workload report.  Every entry point
    raises :class:`TopologyError` naming a node absent from the graph.
    """

    def __init__(self, hierarchy, flat_cache=256):
        if flat_cache < 0:
            raise ConfigurationError(
                f"flat_cache must be >= 0, got {flat_cache}")
        level = hierarchy.physical
        self.hierarchy = hierarchy
        self.head_of = level.clustering.head_of
        self.overlay = level.overlay
        self.csr, self.labels = level.clustering.cluster_rows()
        self.index_of = self.csr.index_of
        self.ids = self.csr.ids
        self._subs = {}           # head row -> (indptr, indices, members)
        self._sub_lists = {}      # head row -> (indptr list, indices list)
        self._dense = {}          # head row -> all-pairs distance matrix
        self._sparse = OrderedDict()  # (head row, local source) -> parents
        self._leg_paths = {}      # (head, source, target) -> node tuple
        self._member_slices = None  # head row -> member row array
        self._local_rows = None   # row -> its position among its members
        self._overlay_trees = {}  # head -> overlay BFS parent ranks
        self._overlay_paths = {}  # (src head, dst head) -> head tuple|None
        self._gateways = {}       # (here, there) -> (exit node, entry node)
        self._plans = {}          # (src head, dst head) -> plan tuple|None
        self._flat = OrderedDict()  # destination -> DistanceSweep (LRU)
        self._flat_cache = flat_cache
        self.flat_hits = 0
        self.flat_misses = 0

    # -- overlay ------------------------------------------------------

    def overlay_path(self, head_src, head_dst):
        """The head path ``hierarchical_route`` would walk, or ``None``.

        One kernel BFS over the overlay per source head, cached; paths
        unwind from it (:meth:`~repro.hierarchy.overlay.Overlay.
        head_path`), so every pair shares the uncached routine's
        smallest-row-parent rule.  ``None`` for every pair when the
        physical level has no overlay.
        """
        if self.overlay is None:
            return None
        key = (head_src, head_dst)
        path = self._overlay_paths.get(key, key)
        if path is key:
            parents = self._overlay_trees.get(head_src)
            if parents is None:
                parents = self.overlay.bfs_parents(head_src)
                self._overlay_trees[head_src] = parents
            path = self.overlay.head_path(head_src, head_dst, parents)
            self._overlay_paths[key] = path
        return path

    # -- intra-cluster legs -------------------------------------------

    def _member_rows(self, head_row):
        """Member rows of every cluster, grouped once via one argsort.

        The stable argsort keeps each group ascending, so a row's local
        row -- its position in its group, what ``searchsorted`` over the
        group would return -- is recorded in :attr:`_local_rows` in the
        same pass.
        """
        slices = self._member_slices
        if slices is None:
            labels = self.labels
            order = np.argsort(labels, kind="stable").astype(np.int64)
            grouped = labels[order]
            starts = np.flatnonzero(
                np.r_[True, grouped[1:] != grouped[:-1]]
            )
            bounds = np.r_[starts, len(order)]
            slices = {
                int(grouped[lo]): order[lo:hi]
                for lo, hi in zip(bounds, bounds[1:])
            }
            local = np.empty(len(order), dtype=np.int64)
            local[order] = np.arange(len(order)) - np.repeat(
                starts, np.diff(bounds))
            self._local_rows = local
            self._member_slices = slices
        return slices[head_row]

    def _sub(self, head):
        """``(indptr, indices, members)`` of the cluster-induced sub-CSR.

        ``members`` are the cluster's rows ascending; local row ``k``
        is ``members[k]``.  Neighbor blocks keep their ascending order,
        so the kernels' smallest-previous-level-row parent rule picks
        the same physical nodes as the label-constrained full-graph
        sweep.
        """
        head_row = self.index_of[head]
        sub = self._subs.get(head_row)
        if sub is None:
            members = self._member_rows(head_row)
            csr = self.csr
            starts = csr.indptr[members].astype(np.int64)
            counts = csr.indptr[members + 1].astype(np.int64) - starts
            take = (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts)
                + np.repeat(starts, counts)
            )
            neigh = csr.indices[take].astype(np.int64)
            keep = self.labels[neigh] == head_row
            local = self._local_rows[neigh[keep]].astype(np.int32)
            row_of = np.repeat(np.arange(len(members)), counts)
            kept_per_row = np.bincount(
                row_of[keep], minlength=len(members)
            ).astype(np.int32)
            indptr = np.zeros(len(members) + 1, dtype=np.int32)
            np.cumsum(kept_per_row, out=indptr[1:])
            sub = (indptr, local, members)
            self._subs[head_row] = sub
            self._sub_lists[head_row] = (indptr.tolist(), local.tolist())
        return sub

    def _cluster_distances(self, head):
        """Dense all-pairs hop distances of one cluster, lazily built.

        One level-synchronous **multi-source sweep** over the cluster's
        sub-CSR: every member is a source at once, frontiers advance as
        a boolean matrix product (BLAS) per level.  ``D[s, t]`` is the
        intra-cluster hop distance (``-1`` disconnected).  Distances
        are tie-break-free, so the matrix is exact; one build serves
        every leg that ever touches the cluster, replacing a BFS per
        (cluster, leg source).  ``None`` for clusters of more
        than :data:`DENSE_MAX_MEMBERS` members, whose legs
        :meth:`_leg` takes from per-source BFS parents instead.
        """
        head_row = self.index_of[head]
        dense = self._dense.get(head_row)
        if dense is None:
            indptr, indices, _members = self._sub(head)
            n = len(indptr) - 1
            if n > DENSE_MAX_MEMBERS:
                return None
            adjacency = np.zeros((n, n), dtype=np.float32)
            adjacency[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
            dense = np.full((n, n), -1, dtype=np.int16)
            np.fill_diagonal(dense, 0)
            visited = np.eye(n, dtype=bool)
            frontier = np.eye(n, dtype=np.float32)
            level = 0
            while True:
                level += 1
                fresh = (frontier @ adjacency > 0.0) & ~visited
                if not fresh.any():
                    break
                dense[fresh] = level
                visited |= fresh
                frontier = fresh.astype(np.float32)
            self._dense[head_row] = dense
        return dense

    def _leg(self, head, source, target):
        """Shortest same-cluster path, = ``_intra_cluster_path`` exactly.

        The deterministic parent rule ("first discoverer in
        (sorted-frontier row, ascending CSR neighbor) order") is
        equivalent to "smallest-row neighbor at the previous BFS
        level", so given the cluster's dense distance matrix the path
        unwinds target -> source by scanning each row's ascending CSR
        block for the first neighbor one level closer to the source.
        Over-cap clusters unwind the kernel's own BFS parents from the
        source instead.  The member renumbering is monotonic, hence
        either way the local rule picks exactly the nodes the
        full-graph label-constrained search picks.
        """
        key = (head, source, target)
        path = self._leg_paths.get(key)
        if path is None:
            head_row = self.index_of[head]
            indptr, indices, members = self._sub(head)
            dense = self._cluster_distances(head)
            local_src = int(self._local_rows[self.index_of[source]])
            local_tgt = int(self._local_rows[self.index_of[target]])
            if dense is None:
                parents = self._sparse_parents(head_row, indptr, indices,
                                               local_src)
                rows = kernels.unwind_path(parents, local_src,
                                           local_tgt).tolist()
            else:
                rows = self._dense_rows(head_row, dense[local_src],
                                        local_tgt)
            if not rows:
                raise TopologyError(
                    f"cluster of {head!r} is internally disconnected")
            ids = self.ids
            path = tuple(ids[members[row]] for row in rows)
            self._leg_paths[key] = path
        return path

    def _dense_rows(self, head_row, from_src, target):
        """Local rows source .. ``target`` unwound against the source's
        dense distance row ``from_src``; ``[]`` when unreachable."""
        hops = int(from_src[target])
        if hops < 0:
            return []
        ptr, ind = self._sub_lists[head_row]
        from_src = from_src.tolist()
        rows = [target]
        node = target
        for level in range(hops - 1, -1, -1):
            for p in range(ptr[node], ptr[node + 1]):
                neighbor = ind[p]
                if from_src[neighbor] == level:
                    node = neighbor
                    break
            rows.append(node)
        rows.reverse()
        return rows

    def _sparse_parents(self, head_row, indptr, indices, local_src):
        """Kernel BFS parents over an over-cap cluster's sub-CSR (LRU)."""
        key = (head_row, local_src)
        parents = self._sparse.get(key)
        if parents is None:
            parents, _dist = kernels.bfs_parents(indptr, indices, local_src)
            self._sparse[key] = parents
            if len(self._sparse) > SPARSE_TREES:
                self._sparse.popitem(last=False)
        else:
            self._sparse.move_to_end(key)
        return parents

    def _gateway(self, here, there):
        key = (here, there)
        gateway = self._gateways.get(key)
        if gateway is None:
            gateway = gateway_for(self.overlay, here, there)
            self._gateways[key] = gateway
        return gateway

    # -- routing ------------------------------------------------------

    def _plan(self, head_src, head_dst):
        """``(head_path, exit_node, transit, entry_last)``, or ``None``.

        The per-hop walk of ``hierarchical_route`` minus its two
        endpoint legs, run once per (source head, destination head):
        ``exit_node`` is the source cluster's gateway toward the next
        head, ``transit`` the legs through every transit cluster (each
        from its entry gateway to its exit gateway, the very tuples
        cached for :meth:`_leg`, so a plan holds one reference per
        transit cluster rather than a copy of the node run), and
        ``entry_last`` the destination cluster's entry gateway.
        ``None`` when the overlay offers the pair no route.
        """
        key = (head_src, head_dst)
        plan = self._plans.get(key, key)
        if plan is not key:
            return plan
        head_path = self.overlay_path(head_src, head_dst)
        if head_path is not None:
            exit_node, current = self._gateway(head_path[0], head_path[1])
            transit = []
            for hop in range(1, len(head_path) - 1):
                here, there = head_path[hop], head_path[hop + 1]
                exit_mid, entry_mid = self._gateway(here, there)
                transit.append(self._leg(here, current, exit_mid))
                current = entry_mid
            plan = (head_path, exit_node, tuple(transit), current)
        else:
            plan = None
        self._plans[key] = plan
        return plan

    def _row(self, node):
        """``node``'s CSR row; :class:`TopologyError` when absent."""
        try:
            return self.index_of[node]
        except KeyError:
            raise TopologyError(f"node {node!r} not in graph") from None

    def route(self, source, destination):
        """``(route, head_path)``; ``(None, None)`` when unroutable.

        ``route`` equals ``hierarchical_route(hierarchy, source,
        destination)``; ``head_path`` is the overlay head sequence the
        route crossed (``(head,)`` for intra-cluster pairs).  Each leg
        starts at the gateway the previous one crossed to, so an
        inter-cluster route is the concatenation of the source's leg
        to its plan's exit gateway, the plan's transit legs, and the
        leg from the plan's last entry gateway to the destination.
        """
        try:
            head_src = self.head_of[source]
            head_dst = self.head_of[destination]
        except KeyError as error:
            raise TopologyError(
                f"node {error.args[0]!r} not in graph") from None
        if head_src == head_dst:
            return list(self._leg(head_src, source, destination)), (head_src,)
        plan = self._plan(head_src, head_dst)
        if plan is None:
            return None, None
        head_path, exit_node, transit, entry_last = plan
        route = list(self._leg(head_src, source, exit_node))
        for leg in transit:
            route.extend(leg)
        route.extend(self._leg(head_dst, entry_last, destination))
        return route, head_path

    def route_batch(self, requests, flat_every=0, first_index=0):
        """Serve a request chunk; a list of :class:`ServedRequest`.

        A plain loop over the per-request path of :meth:`serve` and
        :meth:`route`: requests are not grouped by head pair, because
        each warm request is already one cached plan read plus its two
        cached endpoint legs.  Flat sampling runs inline in input
        order, so the LRU of lazy flat sweeps sees the exact
        per-request access sequence.  The returned stream is
        byte-identical to calling :meth:`serve` per request with
        ``with_flat = flat_every and (first_index + i) % flat_every ==
        0``; a negative ``flat_every`` raises
        :class:`ConfigurationError`.
        """
        _check_flat_every(flat_every)
        return [
            self.serve(request, with_flat=bool(flat_every)
                       and index % flat_every == 0)
            for index, request in enumerate(requests, first_index)
        ]

    def flat_hops(self, source, destination):
        """Flat shortest-path hops, or ``None`` when disconnected.

        Sweeps are keyed by *destination* (hop distances are
        symmetric), which is exactly the axis skewed workloads
        concentrate on; the cache is LRU so a skewed hot set stays
        resident.  A source the sweep already reached is one read; any
        other lookup meets in the middle (see
        :class:`~repro.graph.traversal.DistanceSweep`), and the sweep
        keeps the levels it grew for later hits.
        """
        row = self._row(source)
        sweep = self._flat.get(destination)
        if sweep is None:
            sweep = DistanceSweep(self.csr, self._row(destination))
            self.flat_misses += 1
            self._flat[destination] = sweep
            if len(self._flat) > self._flat_cache:
                self._flat.popitem(last=False)
        else:
            self.flat_hits += 1
            self._flat.move_to_end(destination)
        hops = sweep.distance(row)
        return None if hops < 0 else hops

    def flat_cache_stats(self):
        """``{hits, misses, lookups, hit_ratio}`` of the flat-BFS cache."""
        lookups = self.flat_hits + self.flat_misses
        return {
            "hits": self.flat_hits,
            "misses": self.flat_misses,
            "lookups": lookups,
            "hit_ratio": self.flat_hits / lookups if lookups else math.nan,
        }

    def serve(self, request, with_flat=False):
        """Route one request into a :class:`ServedRequest`."""
        route, head_path = self.route(request.source, request.destination)
        if route is None:
            return ServedRequest(request, None, None, None)
        flat = None
        if with_flat:
            flat = self.flat_hops(request.source, request.destination)
        return ServedRequest(request, route, head_path, len(route) - 1, flat)

    def route_stretch(self, source, destination):
        """``(hier hops, flat hops, stretch)``, = :func:`~repro.hierarchy.
        routing.route_stretch` exactly, riding every router cache.

        Disconnected pairs return the :data:`~repro.hierarchy.routing.
        UNREACHABLE` sentinel; a connected pair the hierarchy cannot
        route raises :class:`ConfigurationError` (internal
        inconsistency), exactly like the uncached routine.
        """
        flat = self.flat_hops(source, destination)
        if flat is None:
            return UNREACHABLE
        if flat == 0:
            return (0, 0, 1.0)
        route, _head_path = self.route(source, destination)
        if route is None:
            raise ConfigurationError("hierarchy offers no route for the pair")
        hops = len(route) - 1
        return (hops, flat, hops / flat)


class RouterStatsCollector(DataCollector):
    """Router cache effectiveness: flat-BFS LRU hits over lookups.

    Not fed by the request stream -- :func:`serve_workload` absorbs the
    router's counters after each serving pass -- so ``process`` is a
    no-op and the partial state (two integers) merges exactly.
    """

    name = "router"

    def __init__(self):
        self.flat_hits = 0
        self.flat_misses = 0

    def process(self, served):
        return

    def process_batch(self, batch):
        return

    def absorb(self, hits, misses):
        self.flat_hits += hits
        self.flat_misses += misses

    def merge(self, other):
        self._check_mergeable(other)
        self.flat_hits += other.flat_hits
        self.flat_misses += other.flat_misses
        return self

    def results(self):
        lookups = self.flat_hits + self.flat_misses
        return {
            "flat_lookups": lookups,
            "flat_hits": self.flat_hits,
            "flat_misses": self.flat_misses,
            "flat_hit_ratio": self.flat_hits / lookups if lookups
            else math.nan,
        }


def _router_stats_sink(collector):
    """The :class:`RouterStatsCollector` inside ``collector``, if any."""
    if isinstance(collector, RouterStatsCollector):
        return collector
    members = getattr(collector, "collectors", None)
    if members is not None:
        for member in members:
            if isinstance(member, RouterStatsCollector):
                return member
    return None


def _check_flat_every(flat_every):
    if flat_every < 0:
        raise ConfigurationError(f"flat_every must be >= 0, got {flat_every}")


def serve_workload(hierarchy, requests, collector, flat_every=1,
                   router=None, batch_size=BATCH_REQUESTS):
    """Serve a request stream through ``hierarchy`` into ``collector``.

    ``flat_every=k`` computes the flat shortest-path length (the
    path-stretch denominator) for every ``k``-th request only --
    stretch is a sampled statistic, latency/load are exact over all
    requests.  ``flat_every=0`` disables stretch accounting entirely.

    The generator is consumed in ``batch_size`` chunks through
    :meth:`CachedRouter.route_batch` and the collectors'
    ``process_batch``; the collector ends in the state a per-request
    loop over :meth:`CachedRouter.serve` would leave (the test suite
    asserts it against ``tests/oracles/serving.py``).  Returns the
    collector.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    _check_flat_every(flat_every)
    if router is None:
        router = CachedRouter(hierarchy)
    sink = _router_stats_sink(collector)
    hits0, misses0 = router.flat_hits, router.flat_misses
    index = 0
    stream = iter(requests)
    while True:
        batch = list(islice(stream, batch_size))
        if not batch:
            break
        served = router.route_batch(batch, flat_every=flat_every,
                                    first_index=index)
        collector.process_batch(served)
        index += len(batch)
    if sink is not None:
        sink.absorb(router.flat_hits - hits0, router.flat_misses - misses0)
    return collector
