"""Request serving: cached hierarchical routing plus the collector loop.

:func:`~repro.hierarchy.routing.hierarchical_route` decomposes every
route into three reusable pieces -- an overlay head path, one gateway
per overlay hop, and label-constrained intra-cluster legs -- and under
any realistic workload those pieces repeat across requests far more
often than whole (source, destination) pairs do.  :class:`CachedRouter`
exploits that: it memoizes

* the overlay BFS tree per source head (one dict BFS each, identical
  expansion order to :func:`~repro.hierarchy.routing.shortest_path`, so
  the chosen head path and hence the gateway sequence are bit-identical
  to the uncached routine);
* a compact **per-cluster sub-CSR** (member rows ascending, neighbor
  blocks filtered to the cluster) so intra-cluster parent fan-outs are
  sweeps over cluster-sized arrays instead of graph-sized ones.  The
  renumbering is monotonic and the kernel parent rule is "smallest row
  at the previous BFS level", so every unwound leg is bit-identical to
  the label-constrained full-graph search of
  :func:`~repro.hierarchy.routing._intra_cluster_path`;
* a dense all-pairs distance matrix per cluster -- one level-synchronous
  multi-source sweep (boolean matrix products) covering every leg the
  cluster will ever serve;
* the gateway orientation per ordered head pair;
* flat BFS distance arrays per *destination* (distances are symmetric,
  and skewed workloads concentrate destinations) in a bounded **LRU**
  cache -- hits move to the back of the eviction queue, so Zipf-skewed
  destination popularity keeps its hot set resident -- with hit/miss
  counters the workload family reports.

The routes it returns are therefore exactly
``hierarchical_route(hierarchy, source, destination)`` -- the test
suite asserts equality.  :meth:`CachedRouter.route_batch` is the high
throughput entry: it groups a request chunk by (source head,
destination head), resolves each group's head path, gateways and middle
legs once, covers each endpoint cluster's leg fan-out with one dense
multi-source sweep, and assembles per-request routes by tuple
concatenation -- emitting a :class:`ServedRequest` stream byte-identical
to the per-request loop.  :func:`serve_workload` consumes generator
batches directly and hands them to the collector pipeline's batched
``process_batch`` path.
"""

import math
from collections import OrderedDict, deque
from itertools import islice
from typing import NamedTuple, Optional

import numpy as np

from repro.collectors.base import DataCollector, register_collector
from repro.graph import kernels
from repro.graph.traversal import csr_bfs_distances
from repro.hierarchy.overlay import gateway_for
from repro.hierarchy.routing import UNREACHABLE
from repro.util.errors import ConfigurationError, TopologyError

#: Requests pulled from the generator per :meth:`CachedRouter.route_batch`
#: call in batched serving (bounds per-batch memory at any stream length).
BATCH_REQUESTS = 4096

#: Serving-loop modes accepted by :func:`serve_workload`.
SERVING_MODES = ("batch", "request")


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

    ``flat_cache`` bounds how many per-destination flat BFS distance
    arrays are kept (LRU eviction), so memory stays O(cache * n) even
    under uniform destination popularity.  ``flat_hits`` /
    ``flat_misses`` count cache outcomes for the workload report.
    """

    def __init__(self, hierarchy, flat_cache=256):
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
        self._leg_parents = {}    # reference path: full-graph parents
        self._leg_paths = {}      # (head, source, target) -> node tuple
        self._member_slices = None  # head row -> member row array
        self._overlay_trees = {}  # head -> {head: parent} BFS tree
        self._overlay_paths = {}  # (src head, dst head) -> head tuple|None
        self._gateways = {}       # (here, there) -> (exit node, entry node)
        self._flat = OrderedDict()  # destination -> distance array (LRU)
        self._flat_cache = flat_cache
        self.flat_hits = 0
        self.flat_misses = 0

    # -- overlay ------------------------------------------------------

    def _overlay_tree(self, head):
        """Full BFS parent tree over the overlay graph from ``head``.

        Same discovery order as :func:`repro.hierarchy.routing.
        shortest_path` (deque BFS in neighbor order), minus the early
        exit -- which never changes the parents of rows discovered
        before the target, so unwound paths match it exactly.
        """
        tree = self._overlay_trees.get(head)
        if tree is None:
            graph = self.overlay.topology.graph
            tree = {head: None}
            queue = deque([head])
            while queue:
                node = queue.popleft()
                for neighbor in graph.neighbors(node):
                    if neighbor not in tree:
                        tree[neighbor] = node
                        queue.append(neighbor)
            self._overlay_trees[head] = tree
        return tree

    def overlay_path(self, head_src, head_dst):
        """The head path ``hierarchical_route`` would walk, or ``None``."""
        key = (head_src, head_dst)
        if key not in self._overlay_paths:
            tree = self._overlay_tree(head_src)
            if head_dst not in tree:
                self._overlay_paths[key] = None
            else:
                path = [head_dst]
                while tree[path[-1]] is not None:
                    path.append(tree[path[-1]])
                path.reverse()
                self._overlay_paths[key] = tuple(path)
        return self._overlay_paths[key]

    # -- intra-cluster legs -------------------------------------------

    def _member_rows(self, head_row):
        """Member rows of every cluster, grouped once via one argsort."""
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
            local = np.searchsorted(members, neigh[keep]).astype(np.int32)
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
        every request group that ever touches the cluster, replacing a
        BFS per (cluster, leg source).
        """
        head_row = self.index_of[head]
        dense = self._dense.get(head_row)
        if dense is None:
            indptr, indices, _members = self._sub(head)
            n = len(indptr) - 1
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
        The member renumbering is monotonic, hence the local rule picks
        exactly the nodes the full-graph label-constrained search
        picks.
        """
        key = (head, source, target)
        path = self._leg_paths.get(key)
        if path is None:
            head_row = self.index_of[head]
            _indptr, _indices, members = self._sub(head)
            ptr, ind = self._sub_lists[head_row]
            dense = self._cluster_distances(head)
            local_src = int(np.searchsorted(members, self.index_of[source]))
            local_tgt = int(np.searchsorted(members, self.index_of[target]))
            hops = int(dense[local_src, local_tgt])
            if hops < 0:
                raise TopologyError(
                    f"cluster of {head!r} is internally disconnected")
            from_src = dense[local_src].tolist()
            rows = [local_tgt]
            node = local_tgt
            for level in range(hops - 1, -1, -1):
                for p in range(ptr[node], ptr[node + 1]):
                    neighbor = ind[p]
                    if from_src[neighbor] == level:
                        node = neighbor
                        break
                rows.append(node)
            rows.reverse()
            ids = self.ids
            path = tuple(ids[members[row]] for row in rows)
            self._leg_paths[key] = path
        return path

    def _leg_reference(self, head, source, target):
        """:meth:`_leg` via the historical full-graph sweep.

        The pre-batching implementation: one label-constrained BFS over
        the *whole* graph per (cluster, leg source), cached, paths
        unwound per target.  Kept as the regression-gate reference --
        the serving benchmarks measure ``mode="request"`` against the
        batched path -- and as an independent oracle for the sub-CSR
        machinery (identical tuples land in the shared path cache).
        """
        key = (head, source, target)
        path = self._leg_paths.get(key)
        if path is None:
            src_row = self.index_of[source]
            cached = self._leg_parents.get((head, source))
            if cached is None:
                cached, _dist = kernels.bfs_parents(
                    self.csr.indptr, self.csr.indices, src_row,
                    labels=self.labels)
                self._leg_parents[(head, source)] = cached
            tgt_row = self.index_of[target]
            rows = kernels.unwind_path(cached, src_row, tgt_row)
            if rows.size == 0 and src_row != tgt_row:
                raise TopologyError(
                    f"cluster of {head!r} is internally disconnected")
            ids = self.ids
            path = tuple(ids[row] for row in rows)
            self._leg_paths[key] = path
        return path

    def _gateway(self, here, there):
        key = (here, there)
        gateway = self._gateways.get(key)
        if gateway is None:
            gateway = gateway_for(self.overlay, here, there)
            self._gateways[key] = gateway
        return gateway

    # -- routing ------------------------------------------------------

    def route(self, source, destination):
        """``(route, head_path)``; ``(None, None)`` when unroutable.

        ``route`` equals ``hierarchical_route(hierarchy, source,
        destination)``; ``head_path`` is the overlay head sequence the
        route crossed (``(head,)`` for intra-cluster pairs).
        """
        return self._route_impl(source, destination, self._leg)

    def route_reference(self, source, destination):
        """:meth:`route` over the historical full-graph leg sweeps.

        Byte-identical output; only the wall-clock differs.  This is
        the per-request loop the batched path is benchmarked against.
        """
        return self._route_impl(source, destination, self._leg_reference)

    def _route_impl(self, source, destination, leg):
        head_src = self.head_of[source]
        head_dst = self.head_of[destination]
        if head_src == head_dst:
            return list(leg(head_src, source, destination)), (head_src,)
        if self.overlay is None:
            return None, None
        head_path = self.overlay_path(head_src, head_dst)
        if head_path is None:
            return None, None
        route = [source]
        current = source
        for hop in range(len(head_path) - 1):
            here, there = head_path[hop], head_path[hop + 1]
            exit_node, entry_node = self._gateway(here, there)
            route.extend(leg(here, current, exit_node)[1:])
            route.append(entry_node)
            current = entry_node
        route.extend(leg(head_path[-1], current, destination)[1:])
        return route, head_path

    def _group_plan(self, head_src, head_dst):
        """``(head_path, exit1, middle, entry_last)`` for one head pair.

        ``middle`` is the fixed mid-route node run shared by every
        request of the (source head, destination head) group: the first
        entry gateway, every transit-cluster leg, down to the last
        cluster's entry gateway.  ``None`` when the pair is unroutable.
        """
        head_path = self.overlay_path(head_src, head_dst)
        if head_path is None:
            return None
        exit_node, entry_node = self._gateway(head_path[0], head_path[1])
        middle = [entry_node]
        current = entry_node
        for hop in range(1, len(head_path) - 1):
            here, there = head_path[hop], head_path[hop + 1]
            exit_mid, entry_mid = self._gateway(here, there)
            middle.extend(self._leg(here, current, exit_mid)[1:])
            middle.append(entry_mid)
            current = entry_mid
        return head_path, exit_node, tuple(middle), current

    def route_batch(self, requests, flat_every=0, first_index=0):
        """Serve a request chunk; a list of :class:`ServedRequest`.

        Requests are grouped by (source head, destination head); each
        group resolves its overlay head path, gateway sequence, and
        transit-cluster legs once, and one dense multi-source sweep per
        endpoint cluster (:meth:`_cluster_distances`, shared across
        groups) covers the whole leg fan-out, so per-request work
        reduces to the two endpoint legs plus tuple concatenation.  The
        returned stream -- order, routes, head paths, flat sampling --
        is byte-identical to calling :meth:`serve` per request with
        ``with_flat = flat_every and (first_index + i) % flat_every ==
        0``.
        """
        requests = list(requests)
        served = [None] * len(requests)
        groups = {}
        head_of = self.head_of
        for i, request in enumerate(requests):
            key = (head_of[request.source], head_of[request.destination])
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
            bucket.append(i)
        for (head_src, head_dst), bucket in groups.items():
            if head_src == head_dst:
                for i in bucket:
                    request = requests[i]
                    leg = self._leg(head_src, request.source,
                                    request.destination)
                    served[i] = ServedRequest(
                        request=request, route=list(leg),
                        head_path=(head_src,), hops=len(leg) - 1)
                continue
            plan = None if self.overlay is None else \
                self._group_plan(head_src, head_dst)
            if plan is None:
                for i in bucket:
                    served[i] = ServedRequest(
                        request=requests[i], route=None, head_path=None,
                        hops=None)
                continue
            head_path, exit_node, middle, entry_last = plan
            # One dense multi-source sweep per endpoint cluster (cached
            # across groups) covers every leg fan-out below.
            self._cluster_distances(head_src)
            self._cluster_distances(head_dst)
            for i in bucket:
                request = requests[i]
                first = self._leg(head_src, request.source, exit_node)
                last = self._leg(head_dst, entry_last, request.destination)
                route = list(first)
                route.extend(middle)
                route.extend(last[1:])
                served[i] = ServedRequest(
                    request=request, route=route, head_path=head_path,
                    hops=len(route) - 1)
        if flat_every:
            # Flat sampling runs in input order so the LRU flat cache
            # sees the exact per-request-loop access sequence.
            for i, event in enumerate(served):
                if (first_index + i) % flat_every == 0 \
                        and event.route is not None:
                    served[i] = event._replace(flat_hops=self.flat_hops(
                        event.request.source, event.request.destination))
        return served

    def flat_hops(self, source, destination):
        """Flat shortest-path hops, or ``None`` when disconnected.

        BFS arrays are keyed by *destination* (hop distances are
        symmetric), which is exactly the axis skewed workloads
        concentrate on; the cache is LRU so a skewed hot set stays
        resident.
        """
        dist = self._flat.get(destination)
        if dist is None:
            self.flat_misses += 1
            dist = csr_bfs_distances(self.csr, self.index_of[destination])
            self._flat[destination] = dist
            if len(self._flat) > self._flat_cache:
                self._flat.popitem(last=False)
        else:
            self.flat_hits += 1
            self._flat.move_to_end(destination)
        hops = int(dist[self.index_of[source]])
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

    def serve(self, request, with_flat=False, reference=False):
        """Route one request into a :class:`ServedRequest`.

        ``reference=True`` routes through :meth:`route_reference` (the
        historical full-graph per-request sweeps) -- identical outcome,
        reference wall-clock.
        """
        route_fn = self.route_reference if reference else self.route
        route, head_path = route_fn(request.source, request.destination)
        if route is None:
            return ServedRequest(request=request, route=None, head_path=None,
                                 hops=None)
        flat = None
        if with_flat:
            flat = self.flat_hops(request.source, request.destination)
        return ServedRequest(request=request, route=route,
                             head_path=head_path, hops=len(route) - 1,
                             flat_hops=flat)

    def route_stretch(self, source, destination):
        """``(hier hops, flat hops, stretch)``, = :func:`~repro.hierarchy.
        routing.route_stretch` exactly, riding every router cache.

        Disconnected pairs return the :data:`~repro.hierarchy.routing.
        UNREACHABLE` sentinel; a connected pair the hierarchy cannot
        route raises :class:`ConfigurationError` (internal
        inconsistency), exactly like the uncached routine.
        """
        if source not in self.index_of:
            raise TopologyError(f"source {source!r} not in graph")
        if destination not in self.index_of:
            raise TopologyError(f"destination {destination!r} not in graph")
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


@register_collector
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


def serve_workload(hierarchy, requests, collector, flat_every=1,
                   router=None, mode="batch", batch_size=BATCH_REQUESTS):
    """Serve a request stream through ``hierarchy`` into ``collector``.

    ``flat_every=k`` computes the flat shortest-path length (the
    path-stretch denominator) for every ``k``-th request only --
    stretch is a sampled statistic, latency/load are exact over all
    requests.  ``flat_every=0`` disables stretch accounting entirely.

    ``mode="batch"`` (the default) consumes the generator in
    ``batch_size`` chunks through :meth:`CachedRouter.route_batch` and
    the collectors' ``process_batch``; ``mode="request"`` is the
    historical per-request loop.  The collector ends in the identical
    state either way (the test suite and the CI smoke assert it).
    Returns the collector.
    """
    if mode not in SERVING_MODES:
        raise ConfigurationError(
            f"unknown serving mode {mode!r}; expected one of {SERVING_MODES}")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if flat_every < 0:
        raise ConfigurationError(f"flat_every must be >= 0, got {flat_every}")
    if router is None:
        router = CachedRouter(hierarchy)
    sink = _router_stats_sink(collector)
    hits0, misses0 = router.flat_hits, router.flat_misses
    if mode == "request":
        index = 0
        for request in requests:
            with_flat = bool(flat_every) and index % flat_every == 0
            collector.process(router.serve(request, with_flat=with_flat,
                                           reference=True))
            index += 1
    else:
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
