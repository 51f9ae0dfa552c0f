"""``pipeline``: streamed build -> densities -> election -> overlay ->
single-level hierarchy -> Zipf routing, the 10^6-node serving pipeline
in 10^5-node passes.

The shape is the one ``benchmarks/test_bench_route_scale.py`` serves at
10^6 nodes (R = 0.0018, mean degree ~10): the pair search streamed in
chunks, then requests from a bounded set of hot source clusters to a
Zipf destination pool.  A full 10^6-node pass takes ~90 s and ~2 GB,
more than one benchmark run may spend, so each pass deploys
:data:`NODES` nodes with the radius scaled to keep the mean degree and
the chunk budget scaled to keep the number of chunks.  A run makes as
many passes as fit ``--seconds``, each on a fresh seeded deployment;
its throughput is nodes per second through the whole pipeline.

After its overlay is built, a pass serves :data:`REQUESTS` requests in
closed-loop chunks of :data:`CHUNK` through a fresh ``CachedRouter``.
The first :data:`COLD_CHUNKS` chunks grow one overlay BFS tree per hot
source head and most per-cluster caches; their cost counts in the run's
time, and the chunks after them are its steps.  (Counted as steps, the
cold chunks put the tail percentile on the knee of their decay, which
moved a fifth from seed to seed.)  Each chunk first resolves the overlay
path of every distinct head pair, then routes through ``route_batch``,
so overlay BFS and leg assembly land in separate spans.  The hot
clusters are random and the skew is
Zipf(0.5), not the route bench's largest clusters and Zipf(1.0): those
moved the routing cost by a third from seed to seed.

Set-up is the kernel warm-up and one small pass (first calls).
"""

from dataclasses import dataclass
from itertools import islice
from time import perf_counter

import numpy as np

from perfbench.common import Outcome
from repro.clustering.density import all_densities
from repro.clustering.incremental import IncrementalElection
from repro.graph import kernels
from repro.graph.generators import Topology
from repro.graph.geometry import unit_disk_graph
from repro.hierarchy.hierarchy import Hierarchy, HierarchyLevel
from repro.hierarchy.overlay import overlay_topology
from repro.hierarchy.routing import hierarchical_route
from repro.util.errors import TopologyError
from repro.workload.generators import ZipfPopularity, poisson_requests
from repro.workload.serve import CachedRouter

NODES = 100_000
MEAN_DEGREE = 10.2  # 10^6 nodes at R = 0.0018
MAX_PAIRS = 400_000  # a tenth of DEFAULT_CHUNK_PAIRS: as many chunks
HOT_CLUSTERS = 128
DEST_POOL = 4096
ZIPF_ALPHA = 0.5
REQUESTS = 12_000
CHUNK = 100
COLD_CHUNKS = 20
SECONDS_PER_PASS = 7.5  # sizes a run to about --seconds at the parent
WARM_NODES = 20_000

SETUP_REPEATS = 3
TAIL_PERCENTILE = 95  # 100 warm chunks per pass, two passes at 15 s

DEGREE_SAMPLES = 100
ROUTE_SAMPLES = 6  # per pass


@dataclass
class Pass:
    """What one pass built and served, kept for the correctness check."""

    positions: np.ndarray
    graph: object
    clustering: object
    hierarchy: Hierarchy
    samples: list
    pairs: set
    hops: int = 0


@dataclass
class State:
    seed: int
    passes: list


def setup(seed, tracer, pace):
    kernels.warm_up()
    pipeline_pass(seed, 0, WARM_NODES, tracer, pace, [])
    return State(seed=seed, passes=[])


def radius_for(nodes):
    return (MEAN_DEGREE / (np.pi * nodes)) ** 0.5


def pipeline_pass(seed, index, nodes, tracer, pace, steps):
    """Build, elect, overlay and serve deployment ``index``; appends a
    ``(start, end)`` per warm request chunk to ``steps``.  A pace probe
    follows every stage: each runs for a second or more."""
    radius = radius_for(nodes)
    positions = np.random.default_rng((seed, index, 0)).uniform(
        0.0, 1.0, size=(nodes, 2))
    with tracer.span("geometry.unit_disk_graph"):
        graph, _positions = unit_disk_graph(positions, radius,
                                            max_pairs=MAX_PAIRS)
    pace.tick()
    with tracer.span("density.all_densities"):
        densities = all_densities(graph, exact=True)
    pace.tick()
    ids = {node: node for node in graph}
    with tracer.span("incremental.update"):
        clustering = IncrementalElection(order="basic").update(
            graph, densities, tie_ids=ids)
    pace.tick()
    topology = Topology(graph, positions=None, ids=ids, radius=radius)
    with tracer.span("overlay.build"):
        overlay = overlay_topology(topology, clustering)
    pace.tick()
    with tracer.span("hierarchy.build"):
        hierarchy = Hierarchy([HierarchyLevel(index=0, topology=topology,
                                              clustering=clustering,
                                              overlay=overlay)])
        router = CachedRouter(hierarchy)
    with tracer.span("generators.requests"):
        rng = np.random.default_rng((seed, index, 1))
        heads = rng.choice(sorted(clustering.heads), size=HOT_CLUSTERS,
                           replace=False)
        sources = sorted(node for head in heads.tolist()
                         for node in clustering.members(head))
        popularity = ZipfPopularity(sorted(graph.nodes)[:DEST_POOL],
                                    ZIPF_ALPHA)
        stream = poisson_requests(sources, REQUESTS, rng=rng,
                                  popularity=popularity)
    done = Pass(positions=positions, graph=graph, clustering=clustering,
                hierarchy=hierarchy, samples=[], pairs=set())
    head_of = clustering.head_of
    chunks = REQUESTS // CHUNK
    sampled = {k * chunks // ROUTE_SAMPLES for k in range(ROUTE_SAMPLES)}
    for chunk_index in range(chunks):
        step_start = perf_counter()
        with tracer.span("generators.requests"):
            chunk = list(islice(stream, CHUNK))
        chunk_pairs = {(head_of[r.source], head_of[r.destination])
                       for r in chunk}
        with tracer.span("serve.overlay_path"):
            for head_src, head_dst in chunk_pairs:
                if head_src != head_dst:
                    router.overlay_path(head_src, head_dst)
        with tracer.span("serve.route_batch"):
            served = router.route_batch(chunk)
        done.hops += sum(event.hops for event in served
                         if event.route is not None)
        done.pairs |= chunk_pairs
        if chunk_index in sampled:
            done.samples.append(served[0])
        if chunk_index >= COLD_CHUNKS:
            steps.append((step_start, perf_counter()))
        pace.tick()
    return done


def run(state, seconds, tracer, pace):
    """As many passes as fit ``seconds``, each on a fresh deployment."""
    passes = max(1, round(seconds / SECONDS_PER_PASS))
    steps = []
    start = perf_counter()
    done = state.passes = [
        pipeline_pass(state.seed, index, NODES, tracer, pace, steps)
        for index in range(1, passes + 1)]
    span = (start, perf_counter())
    inter = [{pair for pair in one.pairs if pair[0] != pair[1]}
             for one in done]
    overlays = [one.hierarchy.physical.overlay.topology.graph for one in done]
    hops = sum(one.hops for one in done)
    return Outcome(
        items=passes * NODES,
        item_span=span,
        steps=steps,
        attempted=passes * REQUESTS,
        digest=[{"edges": one.graph.edge_count(),
                 "heads": len(one.clustering.heads),
                 "overlay_edges": overlay.edge_count(), "hops": one.hops}
                for one, overlay in zip(done, overlays)],
        rates={"nodes_per_s": (passes * NODES, span)},
        diagnostics={"passes": passes,
                     "route_hops_per_s": hops / sum(pace.scaled(*step)
                                                    for step in steps)},
        counts={"geometry.edges": sum(one.graph.edge_count() for one in done),
                "incremental.heads": sum(len(one.clustering.heads)
                                         for one in done),
                "overlay.heads": sum(len(overlay) for overlay in overlays),
                "overlay.edges": sum(overlay.edge_count()
                                     for overlay in overlays),
                "serve.overlay_pairs": sum(len(pairs) for pairs in inter),
                "serve.source_heads": sum(len({src for src, _dst in pairs})
                                          for pairs in inter)},
    )


def check(state, outcome):
    """Per pass: node and edge counts, sampled degrees against brute
    force, the clustering's invariants, and sampled routes equal to the
    uncached ``hierarchical_route``."""
    checks = []
    for index, one in enumerate(state.passes, 1):
        graph, positions = one.graph, one.positions
        r2 = radius_for(len(positions)) ** 2
        rng = np.random.default_rng((index, 2))
        degrees_ok = True
        for node in rng.choice(len(positions), size=DEGREE_SAMPLES,
                               replace=False):
            diff = positions - positions[node]
            close = np.count_nonzero(np.einsum("ij,ij->i", diff, diff) <= r2)
            degrees_ok &= graph.degree(int(node)) == close - 1
        try:
            one.clustering.check_invariants()
            invariants_ok = True
        except TopologyError:
            invariants_ok = False
        routes_ok = all(
            event.route == hierarchical_route(one.hierarchy,
                                              event.request.source,
                                              event.request.destination)
            for event in one.samples)
        checks += [(f"pass {index} nodes", len(graph) == len(positions)),
                   (f"pass {index} edges", int(graph.to_csr().indptr[-1])
                    == 2 * graph.edge_count()),
                   (f"pass {index} degrees", bool(degrees_ok)),
                   (f"pass {index} invariants", invariants_ok),
                   (f"pass {index} routes", routes_ok)]
    return checks
