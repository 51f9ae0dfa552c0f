"""The cached router and serving loop: exact equivalence to the
uncached routines, flat-hop accounting, and the sampling contract."""

import pytest

from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StretchCollector,
)
from repro.graph.generators import Topology, uniform_topology
from repro.graph.graph import Graph
from repro.graph.paths import is_connected
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import hierarchical_route, route_stretch
from repro.util.errors import ConfigurationError
from repro.workload.generators import Request, poisson_requests
from repro.workload.serve import (
    CachedRouter,
    RouterStatsCollector,
    ServedRequest,
    serve_workload,
)


@pytest.fixture(scope="module")
def deployment():
    for seed in range(20):
        topo = uniform_topology(150, 0.15, rng=seed)
        if is_connected(topo.graph):
            return topo, build_hierarchy(topo, rng=seed)
    raise AssertionError("no connected deployment found")


def sample_pairs(topo, count=120):
    nodes = sorted(topo.graph.nodes)
    return [(nodes[(7 * i) % len(nodes)], nodes[(13 * i + 5) % len(nodes)])
            for i in range(count)]


class TestCachedRouter:
    def test_routes_equal_hierarchical_route(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        for source, destination in sample_pairs(topo):
            route, head_path = router.route(source, destination)
            assert route == hierarchical_route(hierarchy, source,
                                               destination)
            assert head_path[0] == \
                hierarchy.physical.clustering.head(source)
            assert head_path[-1] == \
                hierarchy.physical.clustering.head(destination)

    def test_cache_reuse_stays_exact(self, deployment):
        # Serving the same pairs twice must exercise the warm caches
        # and still agree with the cold answers.
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        pairs = sample_pairs(topo, count=40)
        cold = [router.route(s, d) for s, d in pairs]
        warm = [router.route(s, d) for s, d in pairs]
        assert cold == warm

    def test_flat_hops_match_route_stretch(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        for source, destination in sample_pairs(topo, count=30):
            hops, flat, _stretch = route_stretch(hierarchy, source,
                                                 destination)
            assert router.flat_hops(source, destination) == flat
            route, _ = router.route(source, destination)
            assert len(route) - 1 == hops

    def test_flat_cache_eviction_keeps_answers(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy, flat_cache=4)
        pairs = sample_pairs(topo, count=30)
        first = [router.flat_hops(s, d) for s, d in pairs]
        second = [router.flat_hops(s, d) for s, d in pairs]
        assert first == second
        assert len(router._flat) <= 4

    def test_self_route_is_zero_hops(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        node = sorted(topo.graph.nodes)[0]
        served = router.serve(Request(time=0.0, source=node,
                                      destination=node), with_flat=True)
        assert served.route == [node]
        assert served.hops == 0 and served.flat_hops == 0

    def test_disconnected_pair_is_unroutable(self):
        hierarchy = build_hierarchy(
            Topology(Graph(edges=[(0, 1), (2, 3)])), use_dag=False)
        router = CachedRouter(hierarchy)
        served = router.serve(Request(time=0.0, source=0, destination=3))
        assert served == ServedRequest(request=served.request, route=None,
                                       head_path=None, hops=None)


class TestServeWorkload:
    def test_collector_sees_every_request(self, deployment):
        _topo, hierarchy = deployment
        nodes = sorted(hierarchy.physical.topology.graph.nodes)
        proxy = CollectorProxy([LatencyCollector(), StretchCollector()])
        serve_workload(hierarchy, poisson_requests(nodes, 300, rng=1),
                       proxy, flat_every=1)
        results = proxy.results()
        assert results["latency"]["requests"] == 300
        assert results["stretch"]["sampled"] == 300
        assert results["stretch"]["mean"] >= 1.0

    def test_flat_every_samples_stretch_only(self, deployment):
        _topo, hierarchy = deployment
        nodes = sorted(hierarchy.physical.topology.graph.nodes)
        proxy = CollectorProxy([LatencyCollector(), StretchCollector()])
        serve_workload(hierarchy, poisson_requests(nodes, 300, rng=1),
                       proxy, flat_every=7)
        results = proxy.results()
        assert results["latency"]["requests"] == 300  # latency stays exact
        assert results["stretch"]["sampled"] == 43  # ceil(300 / 7)

    def test_flat_every_zero_disables_stretch(self, deployment):
        _topo, hierarchy = deployment
        nodes = sorted(hierarchy.physical.topology.graph.nodes)
        proxy = CollectorProxy([StretchCollector()])
        serve_workload(hierarchy, poisson_requests(nodes, 50, rng=2),
                       proxy, flat_every=0)
        assert proxy.results()["stretch"]["sampled"] == 0

    def test_explicit_router_is_reused(self, deployment):
        _topo, hierarchy = deployment
        nodes = sorted(hierarchy.physical.topology.graph.nodes)
        router = CachedRouter(hierarchy)
        proxy = serve_workload(hierarchy,
                               poisson_requests(nodes, 20, rng=3),
                               CollectorProxy([LatencyCollector()]),
                               router=router)
        assert proxy.results()["latency"]["requests"] == 20
        assert router._leg_paths  # warmed by the serve loop

    def test_unknown_mode_raises(self, deployment):
        _topo, hierarchy = deployment
        with pytest.raises(ConfigurationError):
            serve_workload(hierarchy, [], CollectorProxy([]), mode="stream")

    @pytest.mark.parametrize("option,value", [
        ("batch_size", 0), ("batch_size", -1), ("flat_every", -2),
    ])
    def test_invalid_size_raises(self, deployment, option, value):
        """A batch that serves nothing or a negative sampling stride is
        a configuration error, not an empty run or a stray exception."""
        _topo, hierarchy = deployment
        nodes = sorted(hierarchy.physical.topology.graph.nodes)
        with pytest.raises(ConfigurationError, match=option):
            serve_workload(hierarchy, poisson_requests(nodes, 500, rng=1),
                           CollectorProxy([LatencyCollector(),
                                           StretchCollector()]),
                           **{option: value})


class TestBatchedRouting:
    """route_batch and the batched serving loop: byte-identical streams."""

    def test_route_batch_equals_per_request_serve(self, deployment):
        topo, hierarchy = deployment
        nodes = sorted(topo.graph.nodes)
        requests = list(poisson_requests(nodes, 240, rng=5))
        batch_router = CachedRouter(hierarchy)
        loop_router = CachedRouter(hierarchy)
        served = batch_router.route_batch(requests, flat_every=7,
                                          first_index=3)
        assert len(served) == len(requests)
        for i, request in enumerate(requests):
            reference = loop_router.serve(
                request, with_flat=(3 + i) % 7 == 0, reference=True)
            assert served[i] == reference

    def test_route_reference_equals_route(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        for source, destination in sample_pairs(topo, count=60):
            assert router.route(source, destination) == \
                CachedRouter(hierarchy).route_reference(source, destination)

    def test_serving_modes_end_in_identical_collector_state(self, deployment):
        topo, hierarchy = deployment
        nodes = sorted(topo.graph.nodes)
        heads = hierarchy.physical.clustering.heads

        def proxy():
            return CollectorProxy([
                LatencyCollector(), LinkLoadCollector(),
                HeadLoadCollector(heads), StretchCollector(),
                RouterStatsCollector(),
            ])

        outcomes = {}
        for mode in ("request", "batch"):
            collector = serve_workload(
                hierarchy, poisson_requests(nodes, 400, rng=9), proxy(),
                flat_every=5, mode=mode, batch_size=64)
            outcomes[mode] = collector
        a, b = outcomes["request"], outcomes["batch"]
        assert a.results() == b.results()
        assert a["link_load"].loads == b["link_load"].loads
        assert a["head_load"].loads == b["head_load"].loads
        assert a["stretch"].pairs == b["stretch"].pairs
        assert a["latency"].hops.counts == b["latency"].hops.counts

    def test_route_batch_handles_unroutable_groups(self):
        hierarchy = build_hierarchy(
            Topology(Graph(edges=[(0, 1), (2, 3)])), use_dag=False)
        router = CachedRouter(hierarchy)
        requests = [Request(time=0.0, source=0, destination=3),
                    Request(time=0.1, source=0, destination=1)]
        served = router.route_batch(requests)
        assert served[0].route is None and served[0].hops is None
        assert served[1].route is not None

    def test_route_stretch_matches_uncached(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        for source, destination in sample_pairs(topo, count=40):
            assert router.route_stretch(source, destination) == \
                route_stretch(hierarchy, source, destination)


class TestFlatCacheLRU:
    def test_hit_moves_entry_to_back_of_eviction_queue(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy, flat_cache=2)
        nodes = sorted(topo.graph.nodes)
        a, b, c = nodes[0], nodes[1], nodes[2]
        router.flat_hops(nodes[10], a)   # cache: [a]
        router.flat_hops(nodes[10], b)   # cache: [a, b]
        router.flat_hops(nodes[11], a)   # hit: cache order [b, a]
        router.flat_hops(nodes[10], c)   # evicts b, not a
        assert list(router._flat) == [a, c]
        assert router.flat_hits == 1
        assert router.flat_misses == 3

    def test_flat_cache_stats_ratio(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        nodes = sorted(topo.graph.nodes)
        for _ in range(3):
            router.flat_hops(nodes[4], nodes[9])
        stats = router.flat_cache_stats()
        assert stats == {"hits": 2, "misses": 1, "lookups": 3,
                         "hit_ratio": 2 / 3}


class TestRouterStatsCollector:
    def test_serve_workload_absorbs_router_counters(self, deployment):
        topo, hierarchy = deployment
        nodes = sorted(topo.graph.nodes)
        proxy = CollectorProxy([LatencyCollector(), RouterStatsCollector()])
        serve_workload(hierarchy, poisson_requests(nodes, 200, rng=4),
                       proxy, flat_every=2)
        results = proxy.results()["router"]
        assert results["flat_lookups"] == 100  # every 2nd request sampled
        assert results["flat_hits"] + results["flat_misses"] == 100

    def test_reused_router_counts_only_the_delta(self, deployment):
        topo, hierarchy = deployment
        nodes = sorted(topo.graph.nodes)
        router = CachedRouter(hierarchy)
        router.flat_hops(nodes[0], nodes[1])  # pre-serving traffic
        proxy = CollectorProxy([RouterStatsCollector()])
        serve_workload(hierarchy, poisson_requests(nodes, 50, rng=6),
                       proxy, flat_every=5, router=router)
        assert proxy.results()["router"]["flat_lookups"] == 10

    def test_merge_sums_counters(self):
        left, right = RouterStatsCollector(), RouterStatsCollector()
        left.absorb(3, 1)
        right.absorb(1, 5)
        merged = left.merge(right).results()
        assert merged["flat_hits"] == 4
        assert merged["flat_misses"] == 6
        assert merged["flat_hit_ratio"] == 0.4
