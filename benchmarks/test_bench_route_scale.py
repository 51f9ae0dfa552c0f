"""Bench: million-node hierarchical routing and stretch sampling.

The scalability story ends at routing: a 10^6-node deployment must not
only *build* (``test_bench_scale``) but *serve*.  This file assembles a
single-level hierarchy over the same seeded 10^6-node unit-disk graph
the build bench uses (streaming construction, exact densities, the
incremental election, and the head overlay) and records two serving
keys the regression gate requires:

* ``route_hops_per_sec_1m`` -- route hops produced per second by
  :meth:`~repro.workload.serve.CachedRouter.route_batch` over a
  Zipf-skewed request chunk.  Sources are confined to a fixed set of
  hot clusters: the overlay BFS tree per *source* head is the dominant
  10^6-scale cost, so a serving deployment that terminates external
  traffic at a bounded gateway set is the realistic shape -- and the
  bench pins exactly that.
* ``stretch_samples_per_sec_1m`` -- flat-vs-hierarchical stretch
  samples per second through
  :meth:`~repro.workload.serve.CachedRouter.route_stretch`.  Each flat
  lookup the destination's cached sweep has not reached meets in the
  middle with a throwaway BFS ball from the source; destinations cycle
  through a small hot set so the LRU flat cache amortizes them the way
  ``flat_every`` sampling does in the workload experiment.

Everything is a pure function of the module seeds, so the hop total is
asserted stable shape-wise (routes exist, hops positive) rather than
re-derived here.
"""

import numpy as np
import pytest

from repro.clustering.density import all_densities
from repro.clustering.incremental import IncrementalElection
from repro.graph.generators import Topology
from repro.graph.geometry import unit_disk_graph
from repro.hierarchy.hierarchy import Hierarchy, HierarchyLevel
from repro.hierarchy.overlay import overlay_topology
from repro.workload.generators import ZipfPopularity, poisson_requests
from repro.workload.serve import CachedRouter

COUNT = 1_000_000
RADIUS = 0.0018  # ~10 mean degree, same regime as test_bench_scale
ROUTE_REQUESTS = 20_000
HOT_CLUSTERS = 64  # distinct source heads = distinct overlay BFS trees
DEST_POOL = 8192
ZIPF_ALPHA = 1.0
STRETCH_SAMPLES = 24
STRETCH_DESTINATIONS = 6  # cold flat BFS count; the rest hit the LRU


@pytest.fixture(scope="module")
def deployment():
    """The seeded 10^6-node single-level hierarchy, built once.

    Built outside :func:`~repro.hierarchy.hierarchy.build_hierarchy`
    because at this scale the bench wants the streaming construction
    path and no DAG renaming round; routing only reads the level-0
    clustering and its overlay, both of which are exact here.
    """
    rng = np.random.default_rng(COUNT)
    positions = rng.uniform(0.0, 1.0, size=(COUNT, 2))
    graph, _ = unit_disk_graph(positions, RADIUS)
    densities = all_densities(graph, exact=True)
    clustering = IncrementalElection(order="basic").update(
        graph, densities, tie_ids={node: node for node in graph})
    topology = Topology(graph, positions=None,
                        ids={node: node for node in graph}, radius=RADIUS)
    overlay = overlay_topology(topology, clustering)
    hierarchy = Hierarchy([HierarchyLevel(index=0, topology=topology,
                                          clustering=clustering,
                                          overlay=overlay)])
    return hierarchy


def _hot_sources(clustering):
    """Members of the ``HOT_CLUSTERS`` largest clusters (deterministic:
    size-desc, head-id tiebreak)."""
    ranked = sorted(clustering.heads,
                    key=lambda head: (-len(clustering.members(head)), head))
    sources = []
    for head in ranked[:HOT_CLUSTERS]:
        sources.extend(clustering.members(head))
    return sorted(sources)


def test_bench_route_batch_1m(benchmark, deployment):
    clustering = deployment.physical.clustering
    sources = _hot_sources(clustering)
    nodes = sorted(deployment.physical.topology.graph.nodes)
    popularity = ZipfPopularity(nodes[:DEST_POOL], ZIPF_ALPHA)
    requests = list(poisson_requests(sources, ROUTE_REQUESTS,
                                     rng=np.random.default_rng(11),
                                     popularity=popularity))

    def run():
        router = CachedRouter(deployment)
        return router.route_batch(requests)

    served = benchmark.pedantic(run, rounds=1, iterations=1)
    routed = [event for event in served if event.route is not None]
    total_hops = sum(event.hops for event in routed)
    assert len(served) == ROUTE_REQUESTS
    assert routed and total_hops > 0
    benchmark.extra_info["requests_routed"] = len(routed)
    benchmark.extra_info["route_hops_per_sec_1m"] = (
        total_hops / benchmark.stats.stats.mean)


def test_bench_route_stretch_1m(benchmark, deployment):
    clustering = deployment.physical.clustering
    sources = _hot_sources(clustering)
    nodes = sorted(deployment.physical.topology.graph.nodes)
    destinations = nodes[:STRETCH_DESTINATIONS]
    pairs = [(sources[(37 * i) % len(sources)],
              destinations[i % STRETCH_DESTINATIONS])
             for i in range(STRETCH_SAMPLES)]

    def run():
        router = CachedRouter(deployment,
                              flat_cache=STRETCH_DESTINATIONS)
        return [router.route_stretch(source, destination)
                for source, destination in pairs]

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(samples) == STRETCH_SAMPLES
    benchmark.extra_info["stretch_samples_per_sec_1m"] = (
        STRETCH_SAMPLES / benchmark.stats.stats.mean)
