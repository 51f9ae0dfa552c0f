"""Serving oracle: the per-request loop with per-hop walks and full sweeps.

:meth:`repro.workload.serve.CachedRouter.route_batch` serves each
request from a cached (source head, destination head) plan whose
transit legs are cached per overlay hop (previous, here, next head),
takes legs from per-cluster slices of one cluster table (sub-CSRs) and
dense distance matrices, and answers flat lookups from lazy BFS sweeps
that meet a throwaway sweep from the source in the middle.
This is the loop it must equal, event for event and cache counter for
cache counter: every request routed on its own by walking its head
path hop by hop, every intra-cluster leg unwound from one
label-constrained BFS over the *whole* graph per (cluster, leg source),
cached, and every flat lookup read from a full per-destination BFS
distance array in the same LRU.  Only the overlay head paths and the
gateways are shared with the library router.  The batched-serving
floor times this loop as its slow side, so it keeps the historical
caching.
"""

from dataclasses import replace

from repro.experiments import workload
from repro.experiments.common import get_preset
from repro.experiments.engine import run_experiment
from repro.graph import kernels
from repro.graph.traversal import csr_bfs_distances
from repro.util.errors import TopologyError
from repro.workload.serve import CachedRouter, _router_stats_sink


class ReferenceRouter(CachedRouter):
    """:class:`CachedRouter` with per-hop routes, full-graph legs and
    full flat BFS arrays.

    Only the overlay paths and gateways are the library's; ``serve``,
    ``route_batch`` and ``route_stretch`` inherit unchanged and so run
    over the overrides below, and every event and flat-cache counter
    must be byte-identical to the library router's.
    """

    def __init__(self, hierarchy, flat_cache=256):
        super().__init__(hierarchy, flat_cache=flat_cache)
        self._leg_parents = {}  # (head, source) -> full-graph parents

    def _leg(self, head, source, target):
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

    def route(self, source, destination):
        """The head path walked hop by hop: a gateway and a leg per hop."""
        head_src = self.head_of[source]
        head_dst = self.head_of[destination]
        if head_src == head_dst:
            return list(self._leg(head_src, source, destination)), (head_src,)
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
            route.extend(self._leg(here, current, exit_node)[1:])
            route.append(entry_node)
            current = entry_node
        route.extend(self._leg(head_path[-1], current, destination)[1:])
        return route, head_path

    def flat_hops(self, source, destination):
        """One full BFS distance array per destination, in the same LRU."""
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


def serve_workload(hierarchy, requests, collector, flat_every=1,
                   router=None):
    """:func:`repro.workload.serve.serve_workload`, one request at a time.

    Same sampling (every ``flat_every``-th request gets its flat hops)
    and the same router-stats absorption; the collector must end in the
    library's state.
    """
    if router is None:
        router = ReferenceRouter(hierarchy)
    sink = _router_stats_sink(collector)
    hits0, misses0 = router.flat_hits, router.flat_misses
    for index, request in enumerate(requests):
        with_flat = bool(flat_every) and index % flat_every == 0
        collector.process(router.serve(request, with_flat=with_flat))
    if sink is not None:
        sink.absorb(router.flat_hits - hits0, router.flat_misses - misses0)
    return collector


def _run_one(task):
    """The workload experiment's chunk runner over the per-request loop."""
    total = None
    for hierarchy, requests, flat_every in workload._streams(task):
        proxy = workload._make_collectors(hierarchy)
        serve_workload(hierarchy, requests, proxy, flat_every=flat_every)
        total = proxy if total is None else total.merge(proxy)
    return total


def run_workload(preset="quick", rng=None, kinds=workload.WORKLOAD_KINDS,
                 radius=0.1, requests=None):
    """:func:`repro.experiments.workload.run_workload` with every chunk
    served through the per-request loop, in-process."""
    preset = get_preset(preset)
    return run_experiment(
        replace(workload.WORKLOAD_SPEC, run=_run_one), preset, rng=rng,
        kinds=tuple(kinds), radius=radius,
        requests=workload._requests_per_kind(preset, requests),
        chunks=workload.CHUNKS, mobility_windows=workload.MOBILITY_WINDOWS)
