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
* one **cluster table** per router: every cluster's sub-CSR (member
  rows ascending, neighbor blocks filtered to the cluster), built in one
  blocked pass over the CSR on the first leg and sliced per cluster, so
  intra-cluster parent fan-outs are sweeps over cluster-sized arrays.
  The renumbering is monotonic and the kernel parent rule is "smallest
  row at the previous BFS level", so every unwound leg is bit-identical
  to the label-constrained full-graph search of
  :func:`~repro.hierarchy.routing._intra_cluster_path`;
* a dense all-pairs distance matrix per cluster of at most
  :data:`DENSE_MAX_MEMBERS` members -- one level-synchronous
  multi-source sweep (boolean matrix products) covering every leg the
  cluster will ever serve; larger clusters serve their legs from
  per-source kernel BFS parents over the sub-CSR instead (same parent
  rule, same legs, memory linear in the cluster);
* the gateway orientation per ordered head pair, and each **transit
  leg** under its overlay hop ``(previous, here, next)`` head triple;
* one **plan** per (source head, destination head) pair: the head
  path, the source cluster's exit gateway, the transit legs (read from
  the hop-keyed cache, one reference per transit cluster) and the
  destination cluster's entry gateway, or ``None`` when the pair is
  unroutable -- so a warm inter-cluster request costs one plan read,
  two cached endpoint legs and one list build;
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

#: Bytes of over-cap clusters' int32 BFS parent arrays kept (LRU); a
#: tree larger than this alone is used once and not kept.
SPARSE_BYTES = 64 << 20

#: Rows per block of the cluster table's CSR walk (bounds its temporaries).
TABLE_BLOCK_ROWS = 1 << 13


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
        self._table = None        # (spans, member rows, indptr, indices)
        self._local = None        # row -> its position among its members
        self._subs = {}           # head row -> sub-CSR arrays and lists
        self._dense = {}          # head row -> all-pairs distance matrix
        self._sparse = OrderedDict()  # (head row, local source) -> parents
        self._sparse_bytes = 0    # bytes of the parent arrays in _sparse
        self._leg_paths = {}      # (head, source, target) -> node tuple
        self._transit = {}        # (previous, here, next head) -> leg
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

    def _cluster_table(self):
        """Every cluster's sub-CSR in one table, built on the first leg.

        One sort of ``(label, row)`` keys lists the rows cluster-major,
        so a cluster is a span of table rows and a row's local row is
        its offset in its span.  One walk over the rows' CSR blocks,
        :data:`TABLE_BLOCK_ROWS` rows at a time, keeps the neighbors
        whose offset falls inside the row's own span.
        """
        csr, n = self.csr, len(self.labels)
        key = self.labels * n + np.arange(n)
        key.sort()
        order = (key % n).astype(np.int32)
        grouped = key // n
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        sizes = np.diff(np.r_[starts, n])
        spans = dict(zip(grouped[starts].tolist(),
                         zip(starts.tolist(), (starts + sizes).tolist())))
        del key, grouped
        span_start = np.repeat(starts.astype(np.int32), sizes)
        span_len = np.repeat(sizes.astype(np.uint32), sizes)
        position = np.empty(n, dtype=np.int32)
        position[order] = np.arange(n, dtype=np.int32)
        table_ptr = np.zeros(n + 1, dtype=np.int32)
        # Sized for every entry; pages past the kept ones stay untouched.
        table = np.empty(len(csr.indices), dtype=np.int32)
        kept = 0
        for lo in range(0, n, TABLE_BLOCK_ROWS):
            hi = min(lo + TABLE_BLOCK_ROWS, n)
            first = csr.indptr[order[lo:hi]]
            counts = csr.indptr[order[lo:hi] + 1] - first
            ends = np.cumsum(counts)
            take = np.repeat(first - ends + counts, counts)
            take += np.arange(len(take))
            offset = position[csr.indices[take]]
            offset -= np.repeat(span_start[lo:hi], counts)
            inside = offset.view(np.uint32) < np.repeat(span_len[lo:hi], counts)
            found = np.zeros(len(inside) + 1, dtype=np.int32)
            np.cumsum(inside, out=found[1:])
            table[kept:kept + int(found[-1])] = offset[inside]
            table_ptr[lo + 1:hi + 1] = kept + found[ends]
            kept += int(found[-1])
        self._table = (spans, order, table_ptr, table[:kept])
        self._local = (position - span_start[position]).tolist()
        return self._table

    def _sub(self, head_row):
        """``(indptr, indices, members, indptr list, indices list)``: the
        cluster's slice of :meth:`_cluster_table`, whose local row ``k``
        is the node ``members[k]``, the ``k``-th member row ascending."""
        sub = self._subs.get(head_row)
        if sub is None:
            spans, order, ptr, table = self._table or self._cluster_table()
            lo, hi = spans[head_row]
            base = int(ptr[lo])
            indptr = ptr[lo:hi + 1] - base
            indices = table[base:int(ptr[hi])]
            members = list(map(self.ids.__getitem__, order[lo:hi].tolist()))
            sub = (indptr, indices, members, indptr.tolist(), indices.tolist())
            self._subs[head_row] = sub
        return sub

    def _cluster_distances(self, head_row):
        """Dense all-pairs hop distances of one cluster, lazily built.

        One level-synchronous **multi-source sweep** over the sub-CSR,
        every member a source: the 0/1 matrix of pairs within ``k`` hops
        grows by one BLAS matrix product per level, and each pair farther
        apart adds one to ``D[s, t]``, the intra-cluster hop distance
        (``-1`` disconnected; exact, as distances are tie-break-free).
        One build serves every leg of the cluster; ``None`` over
        :data:`DENSE_MAX_MEMBERS` members (:meth:`_leg` uses BFS parents).
        """
        dense = self._dense.get(head_row)
        if dense is None:
            indptr, indices = self._sub(head_row)[:2]
            n = len(indptr) - 1
            if n > DENSE_MAX_MEMBERS:
                return None
            step = np.eye(n, dtype=np.float32)
            step[np.repeat(np.arange(n), np.diff(indptr)), indices] = 1.0
            far = step == 0.0
            dense = far + np.int16(1)
            np.fill_diagonal(dense, 0)
            within, left = step, np.count_nonzero(far)
            while left:
                within = within @ step
                np.minimum(within, 1.0, out=within)  # walk counts overflow
                far = within == 0.0
                before, left = left, np.count_nonzero(far)
                if left == before:  # the pairs left are disconnected
                    dense[far] = -1
                    break
                dense += far
            self._dense[head_row] = dense
        return dense

    def _leg(self, head, source, target):
        """Shortest same-cluster path, = ``_intra_cluster_path`` exactly.

        The parent rule ("first discoverer in (sorted-frontier row,
        ascending CSR neighbor) order") is "smallest-row neighbor at the
        previous BFS level", so the path unwinds target -> source by
        scanning each row's ascending block for the first neighbor one
        level closer in the cluster's dense distance matrix (over-cap
        clusters: the kernel's BFS parents).  The member renumbering is
        monotonic, so the local rule picks the full-graph search's nodes.
        """
        key = (head, source, target)
        path = self._leg_paths.get(key)
        if path is None:
            head_row = self.index_of[head]
            indptr, indices, members, ptr, ind = self._sub(head_row)
            dense = self._cluster_distances(head_row)
            local_src = self._local[self.index_of[source]]
            local_tgt = self._local[self.index_of[target]]
            if dense is None:
                parents = self._sparse_parents(head_row, indptr, indices,
                                               local_src)
                rows = kernels.unwind_path(parents, local_src,
                                           local_tgt).tolist()
            else:
                rows = _dense_rows(ptr, ind, dense[local_src], local_tgt)
            if not rows:
                raise TopologyError(
                    f"cluster of {head!r} is internally disconnected")
            path = tuple(map(members.__getitem__, rows))
            self._leg_paths[key] = path
        return path

    def _sparse_parents(self, head_row, indptr, indices, local_src):
        """Kernel BFS parents over an over-cap cluster's sub-CSR (LRU of
        at most :data:`SPARSE_BYTES`)."""
        key = (head_row, local_src)
        parents = self._sparse.pop(key, None)
        if parents is None:
            parents, _dist = kernels.bfs_parents(indptr, indices, local_src)
            parents = parents.astype(np.int32)
            self._sparse_bytes += parents.nbytes
        self._sparse[key] = parents
        while self._sparse_bytes > SPARSE_BYTES:
            _key, evicted = self._sparse.popitem(last=False)
            self._sparse_bytes -= evicted.nbytes
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

        The per-hop walk of ``hierarchical_route`` minus its endpoint
        legs, once per head pair: the source cluster's exit gateway, the
        transit legs read per overlay hop from :meth:`_transit_leg`'s
        cache (references, not copies) and the destination cluster's
        entry gateway; ``None`` when the overlay offers no route.
        """
        key = (head_src, head_dst)
        plan = self._plans.get(key, key)
        if plan is not key:
            return plan
        plan = None
        head_path = self.overlay_path(head_src, head_dst)
        if head_path is not None:
            hops = tuple(zip(head_path, head_path[1:-1], head_path[2:]))
            transit = tuple(map(self._transit.get, hops))
            if None in transit:
                transit = tuple(map(self._transit_leg, hops))
            plan = (head_path, self._gateway(*head_path[:2])[0], transit,
                    self._gateway(*head_path[-2:])[1])
        self._plans[key] = plan
        return plan

    def _transit_leg(self, hop):
        """The leg across ``here`` on the overlay hop ``(previous, here,
        next)``, from the gateway entered to the one left, cached."""
        leg = self._transit.get(hop)
        if leg is None:
            previous, here, following = hop
            leg = self._leg(here, self._gateway(previous, here)[1],
                            self._gateway(here, following)[0])
            self._transit[hop] = leg
        return leg

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
        starts at the gateway the previous one crossed to, so a route
        concatenates the source's leg to the plan's exit gateway, the
        transit legs, and the leg from the last entry gateway on.
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

        A plain loop over :meth:`serve` (a warm request is already one
        plan read and two endpoint legs, so requests are not grouped),
        with flat sampling inline in input order: the stream equals
        :meth:`serve` per request with ``with_flat = flat_every and
        (first_index + i) % flat_every == 0``, and the flat LRU sees the
        same access sequence.  A negative ``flat_every`` raises
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

        Sweeps are keyed by *destination* (hop distances are symmetric,
        and skewed workloads concentrate there) in an LRU, so a hot set
        stays resident.  A source the sweep reached is one read; any
        other lookup meets in the middle (see
        :class:`~repro.graph.traversal.DistanceSweep`), and the sweep
        keeps the levels it grew.
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


def _dense_rows(ptr, ind, from_src, target):
    """Local rows source .. ``target`` of a sub-CSR (lists ``ptr`` /
    ``ind``) unwound against the source's dense distance row
    ``from_src``; ``[]`` when unreachable."""
    hops = int(from_src[target])
    if hops < 0:
        return []
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
