"""``serve_zipf``: one long-lived router serving a Poisson/Zipf(0.8) stream.

A 5000-node Poisson deployment (R = 0.05, mean degree ~39) and its
``build_hierarchy`` are set-up.  One :class:`CachedRouter` then serves a
Poisson-arrival stream with Zipf(0.8) destination popularity (request
timestamps are simulated) through ``serve_workload`` in batch mode,
into the latency, link-load, head-load and stretch collectors.

Batches of :data:`BATCH` requests form a closed loop: the next batch is
drawn when the previous one is collected.  Every :data:`FLAT_EVERY`-th
request carries a flat-BFS stretch sample, so a quarter of the batches
pay one flat lookup (two thirds of them miss the cache); the median
batch shows leg assembly and collectors, the tail the flat BFS.  The overlay is small and warm after set-up,
so an overlay-BFS change should leave this workload flat.
"""

from dataclasses import dataclass
from itertools import islice
from time import perf_counter

import numpy as np

import repro.graph.generators
import repro.hierarchy.hierarchy
from perfbench.common import Outcome
from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StretchCollector,
)
from repro.graph.generators import poisson_topology
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import hierarchical_route
from repro.workload.generators import ZipfPopularity, poisson_requests
from repro.workload.serve import (
    CachedRouter,
    RouterStatsCollector,
    serve_workload,
)

INTENSITY = 5000
RADIUS = 0.05
ZIPF_ALPHA = 0.8
BATCH = 64
FLAT_EVERY = 4 * BATCH
WARM_BATCHES = 150
BATCHES_PER_SECOND = 250  # sizes a run to about --seconds at the parent

SETUP_REPEATS = 3
TAIL_PERCENTILE = 99  # at least 1000 batches per run

SAMPLE_EVERY = 50  # batches between requests kept for the route check


@dataclass
class State:
    hierarchy: object
    router: CachedRouter
    collector: CollectorProxy
    stream: object
    served: int = 0
    samples: list = None


def instrument(tracer):
    """Spans inside ``build_hierarchy`` and ``poisson_topology``."""
    def count_rounds(tracer, result, _args):
        tracer.count("naming.calls")
        tracer.count("naming.rounds", result[1])

    module = repro.hierarchy.hierarchy
    tracer.patch(module, "assign_dag_ids", "naming.assign_dag_ids",
                 after=count_rounds)
    tracer.patch(module, "compute_clustering", "oracle.compute_clustering")
    tracer.patch(module, "overlay_topology", "overlay.build")
    tracer.patch(repro.graph.generators, "unit_disk_graph",
                 "geometry.unit_disk_graph")


def setup(seed, tracer, pace):
    rng = np.random.default_rng(seed)
    with tracer.span("topology.poisson"):
        topology = poisson_topology(INTENSITY, RADIUS, rng=rng)
    with tracer.span("hierarchy.build"):
        hierarchy = build_hierarchy(topology, rng=rng)
    router = CachedRouter(hierarchy)
    for method in ("route_batch", "overlay_path", "flat_hops"):
        tracer.patch(router, method, f"serve.{method}")
    collector = CollectorProxy([
        LatencyCollector(),
        LinkLoadCollector(),
        HeadLoadCollector(hierarchy.physical.clustering.heads),
        StretchCollector(),
        RouterStatsCollector(),
    ])
    for member in collector.collectors[:4]:
        tracer.patch(member, "process_batch",
                     f"collectors.{member.name}.process_batch")
    nodes = sorted(topology.graph.nodes)
    stream = poisson_requests(nodes, 2**62,
                              rng=np.random.default_rng((seed, 1)),
                              popularity=ZipfPopularity(nodes, ZIPF_ALPHA))
    state = State(hierarchy=hierarchy, router=router, collector=collector,
                  stream=stream, samples=[])
    for _ in range(WARM_BATCHES):
        serve_batch(state, tracer)
        pace.tick()
    return state


def serve_batch(state, tracer):
    """Draw and serve one batch; same sampling as one long
    ``serve_workload`` call over the whole stream."""
    with tracer.span("generators.requests"):
        batch = list(islice(state.stream, BATCH))
    sampled = state.served % FLAT_EVERY == 0
    serve_workload(state.hierarchy, batch, state.collector,
                   flat_every=FLAT_EVERY if sampled else 0,
                   router=state.router, batch_size=BATCH)
    state.served += len(batch)
    return batch


def _hops(collector):
    latency = collector["latency"].results()
    return latency["mean"] * latency["served"] if latency["served"] else 0.0


def run(state, seconds, tracer, pace):
    batches = max(1, round(seconds * BATCHES_PER_SECOND))
    hops_before = _hops(state.collector)
    steps = []
    start = perf_counter()
    for index in range(batches):
        step_start = perf_counter()
        batch = serve_batch(state, tracer)
        steps.append((step_start, perf_counter()))
        pace.tick()
        if index % SAMPLE_EVERY == 0:
            state.samples.append(batch[0])
    span = (start, perf_counter())
    requests = batches * BATCH
    results = state.collector.results()
    flat = state.router.flat_cache_stats()
    overlay = state.hierarchy.physical.overlay.topology.graph
    return Outcome(
        items=requests,
        item_span=span,
        steps=steps,
        attempted=requests,
        digest=results,
        rates={"requests_per_s": (requests, span),
               "route_hops_per_s": (_hops(state.collector) - hops_before,
                                    span)},
        diagnostics={"flat_hit_ratio": flat["hit_ratio"]},
        counts={"serve.flat_hit_ratio": flat["hit_ratio"],
                "serve.flat_misses": flat["misses"],
                "hierarchy.levels": state.hierarchy.depth,
                "overlay.heads": len(overlay),
                "overlay.edges": overlay.edge_count()},
    )


def check(state, outcome):
    """Served plus unroutable equals requests; sampled routes equal the
    uncached ``hierarchical_route``."""
    latency = state.collector["latency"].results()
    routes_ok = all(
        state.router.route_batch([request])[0].route
        == hierarchical_route(state.hierarchy, request.source,
                              request.destination)
        for request in state.samples)
    return [("requests", latency["served"] + latency["unroutable"]
             == state.served),
            ("routes", routes_ok)]
