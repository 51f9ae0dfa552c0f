"""Bench: traffic serving throughput through the cached hierarchical router.

Serves 10^5 Poisson-arrival requests per bench through
:func:`~repro.workload.serve.serve_workload` at 1000 and 5000 nodes,
under uniform and Zipf(0.8) destination popularity.  Each bench also
records two serving-quality keys in ``extra_info``:

* ``requests_per_sec`` -- served requests over the measured mean time
  (the throughput key the regression gate normalizes by the calibration
  bench);
* ``p99_latency_hops`` -- the p99 serving latency in hops (a pure
  function of the seeded deployment and workload, so the gate compares
  it raw: any drift is a routing change, not machine noise).

``flat_every=0`` disables stretch sampling so the measurement is the
serving path itself, not the flat-BFS oracle.

The parametrized benches serve in the default batched mode
(``route_batch`` serves each request from a cached plan per (source
head, destination head) pair plus two cached endpoint legs; it does
not group requests by head pair).  The ``*_floor_batch`` /
``*_reference`` pair serves one identical 20k-request Zipf stream at
5000 nodes through a fresh router in each mode -- the regime every
workload-experiment run is in (a new router per shape and per mobility
window) -- and the regression gate holds batched to >= 3x the
per-request loop on exactly that pair (``SPEEDUP_FLOORS``).  That loop
is the serving oracle of ``tests/oracles/serving.py``: it walks every
head path hop by hop and unwinds legs from full-graph label-constrained
BFS trees, so the pair measures plans and per-cluster leg sweeps
against that historical work.  The 10^5 benches are deliberately not
the floor pair: over a long enough stream on a fixed graph both modes
converge to warm-cache assembly, so the steady-state ratio understates
what the router's caches buy a fresh run.
"""

import numpy as np
import pytest

from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
)
from repro.graph.generators import uniform_topology
from repro.hierarchy.hierarchy import build_hierarchy
from repro.workload.generators import ZipfPopularity, poisson_requests
from repro.workload.serve import serve_workload
from tests.oracles import serving

SCALES = (1000, 5000)
RADIUS = 0.05
REQUESTS = 100_000
FLOOR_REQUESTS = 20_000  # one workload-experiment run's per-shape budget
ZIPF_ALPHA = 0.8


@pytest.fixture(scope="module")
def deployments():
    """One seeded hierarchy per scale (deployment build cost out of the
    measurement)."""
    built = {}
    for count in SCALES:
        rng = np.random.default_rng(2024)
        topology = uniform_topology(count, RADIUS, rng=rng)
        built[count] = build_hierarchy(topology, rng=rng)
    return built


def _serve(hierarchy, kind, mode="batch", count=REQUESTS):
    nodes = sorted(hierarchy.physical.topology.graph.nodes)
    proxy = CollectorProxy([
        LatencyCollector(),
        LinkLoadCollector(),
        HeadLoadCollector(hierarchy.physical.clustering.heads),
    ])
    popularity = (ZipfPopularity(nodes, ZIPF_ALPHA)
                  if kind == "zipf" else None)
    requests = poisson_requests(nodes, count,
                                rng=np.random.default_rng(7),
                                popularity=popularity)
    serve = serving.serve_workload if mode == "request" else serve_workload
    return serve(hierarchy, requests, proxy, flat_every=0)


@pytest.mark.parametrize("count,kind", [
    (1000, "uniform"),
    (1000, "zipf"),
    (5000, "uniform"),
    (5000, "zipf"),
])
def test_bench_workload_serve(benchmark, deployments, count, kind):
    hierarchy = deployments[count]
    proxy = benchmark.pedantic(lambda: _serve(hierarchy, kind),
                               rounds=1, iterations=1)
    latency = proxy["latency"].results()
    assert latency["requests"] == REQUESTS
    assert latency["served"] + latency["unroutable"] == REQUESTS
    benchmark.extra_info["requests_per_sec"] = (
        REQUESTS / benchmark.stats.stats.mean)
    benchmark.extra_info["p99_latency_hops"] = latency["p99"]


@pytest.mark.parametrize("mode", ["batch", "request"])
def test_bench_workload_serve_floor(benchmark, deployments, mode):
    """The speedup-floor pair: one identical 20k-request Zipf stream at
    5000 nodes, served batched and through the per-request reference
    loop (fresh router each, exactly like a workload-experiment run).
    The gate requires batch >= 3x request on this pair."""
    hierarchy = deployments[5000]
    proxy = benchmark.pedantic(
        lambda: _serve(hierarchy, "zipf", mode=mode, count=FLOOR_REQUESTS),
        rounds=1, iterations=1)
    latency = proxy["latency"].results()
    assert latency["requests"] == FLOOR_REQUESTS
    benchmark.extra_info["requests_per_sec"] = (
        FLOOR_REQUESTS / benchmark.stats.stats.mean)
    benchmark.extra_info["p99_latency_hops"] = latency["p99"]
