"""The cached router and serving loop: exact equivalence to the
uncached routines and to the serving oracle, flat-hop accounting, the
sampling contract, and errors for unknown nodes."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StretchCollector,
)
from repro.graph.generators import (
    Topology,
    complete_topology,
    line_topology,
    ring_topology,
    star_topology,
    uniform_topology,
)
from repro.graph.graph import Graph
from repro.graph.models.random_graphs import (
    erdos_renyi_topology,
    fixed_degree_topology,
)
from repro.graph.paths import hop_distance, is_connected
from repro.hierarchy.hierarchy import build_hierarchy
from repro.hierarchy.routing import hierarchical_route, route_stretch
from repro.util.errors import ConfigurationError, TopologyError
from repro.workload import serve
from repro.workload.generators import Request, poisson_requests
from repro.workload.serve import (
    CachedRouter,
    RouterStatsCollector,
    ServedRequest,
    serve_workload,
)
from tests.oracles import serving
from tests.oracles import traversal as traversal_oracle
from tests.property.strategies import graphs


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

    def test_overlay_path_without_overlay_is_none(self):
        """A one-level hierarchy has no overlay: every inter-cluster
        head pair is unroutable, as ``route`` already reports."""
        hierarchy = build_hierarchy(uniform_topology(60, 0.2, rng=3),
                                    rng=3, max_levels=1)
        assert hierarchy.physical.overlay is None
        clustering = hierarchy.physical.clustering
        head_src, head_dst = sorted(clustering.heads)[:2]
        router = CachedRouter(hierarchy)
        assert router.overlay_path(head_src, head_dst) is None
        assert router.route(min(clustering.members(head_src)),
                            min(clustering.members(head_dst))) == (None, None)


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
        loop_router = serving.ReferenceRouter(hierarchy)
        served = batch_router.route_batch(requests, flat_every=7,
                                          first_index=3)
        assert len(served) == len(requests)
        for i, request in enumerate(requests):
            reference = loop_router.serve(
                request, with_flat=(3 + i) % 7 == 0)
            assert served[i] == reference

    def test_route_reference_equals_route(self, deployment):
        topo, hierarchy = deployment
        router = CachedRouter(hierarchy)
        for source, destination in sample_pairs(topo, count=60):
            assert router.route(source, destination) == \
                serving.ReferenceRouter(hierarchy).route(source, destination)

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

        a = serving.serve_workload(
            hierarchy, poisson_requests(nodes, 400, rng=9), proxy(),
            flat_every=5)
        b = serve_workload(
            hierarchy, poisson_requests(nodes, 400, rng=9), proxy(),
            flat_every=5, batch_size=64)
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

    def test_route_batch_rejects_negative_flat_every(self, deployment):
        """``i % -1 == 0`` for every ``i``: a negative stride would
        sample every request instead of failing as ``serve_workload``
        does."""
        topo, hierarchy = deployment
        requests = list(poisson_requests(sorted(topo.graph.nodes), 5, rng=5))
        with pytest.raises(ConfigurationError, match="flat_every"):
            CachedRouter(hierarchy).route_batch(requests, flat_every=-1)

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


class TestDenseCap:
    """Clusters above ``DENSE_MAX_MEMBERS`` keep no dense matrix."""

    def test_over_cap_clusters_route_identically(self, deployment,
                                                 monkeypatch):
        topo, hierarchy = deployment
        clustering = hierarchy.physical.clustering
        sizes = sorted(len(clustering.members(head))
                       for head in clustering.heads)
        cap = sizes[len(sizes) // 2]
        monkeypatch.setattr(serve, "DENSE_MAX_MEMBERS", cap)
        router = CachedRouter(hierarchy)
        nodes = sorted(topo.graph.nodes)
        requests = list(poisson_requests(nodes, 300, rng=12))
        served = router.route_batch(requests)
        for event in served:
            request = event.request
            assert event.route == hierarchical_route(
                hierarchy, request.source, request.destination)
        for source, destination in sample_pairs(topo, count=60):
            assert router.route(source, destination)[0] == \
                hierarchical_route(hierarchy, source, destination)
        index_of = router.index_of
        large = {index_of[head] for head in clustering.heads
                 if len(clustering.members(head)) > cap}
        assert large and router._sparse
        assert router._dense and not large & set(router._dense)
        assert all(len(matrix) <= cap for matrix in router._dense.values())

    def test_int16_holds_the_longest_dense_distance(self):
        """A dense matrix stores hop counts as int16; a cluster of
        ``DENSE_MAX_MEMBERS`` members spans at most one hop fewer."""
        assert serve.DENSE_MAX_MEMBERS - 1 <= np.iinfo(np.int16).max


class TestSparseBudget:
    """Over-cap clusters keep their per-source parent trees within
    ``SPARSE_BYTES``, evicting least recently used trees first."""

    @pytest.mark.parametrize("trees", [3, 0.5])
    def test_star_trees_stay_within_budget(self, monkeypatch, trees):
        topo = star_topology(40)
        hierarchy = build_hierarchy(topo, rng=1)
        clustering = hierarchy.physical.clustering
        hub = clustering.head(0)
        size = len(clustering.members(hub))
        assert size == 20
        monkeypatch.setattr(serve, "DENSE_MAX_MEMBERS", 8)
        monkeypatch.setattr(serve, "SPARSE_BYTES", int(trees * size * 4))
        router = CachedRouter(hierarchy)
        nodes = sorted(topo.graph.nodes)
        for source in nodes:
            for destination in reversed(nodes):
                assert router.route(source, destination)[0] == \
                    hierarchical_route(hierarchy, source, destination)
                kept = list(router._sparse.values())
                assert all(tree.dtype == np.int32 for tree in kept)
                assert sum(tree.nbytes for tree in kept) == \
                    router._sparse_bytes <= serve.SPARSE_BYTES
        assert router.index_of[hub] not in router._dense
        assert len(router._sparse) == int(trees)


class TestRouterLifetime:
    def test_router_dies_with_its_last_reference(self, deployment):
        """No router cache refers back to the router, so a router that
        served inter-cluster requests is freed by reference counting
        alone, without waiting for the cyclic collector."""
        topo, hierarchy = deployment
        nodes = sorted(topo.graph.nodes)
        requests = list(poisson_requests(nodes, 200, rng=5))
        gc.disable()
        try:
            router = CachedRouter(hierarchy)
            served = router.route_batch(requests, flat_every=3)
            assert router._transit and router._plans and router._flat
            alive = weakref.ref(router)
            del router
            assert alive() is None
        finally:
            gc.enable()
        assert any(len(event.head_path) > 2 for event in served)


@st.composite
def serving_scenarios(draw):
    """``(hierarchy, flat_cache, calls)``: a hierarchy over a random
    graph (disconnected, isolated nodes, integer or string ids) and a
    mixed sequence of router calls over its nodes."""
    graph = draw(graphs(max_nodes=20))
    ids = None
    if draw(st.booleans()):
        name = {node: f"n{node}" for node in graph.nodes}
        ids = {name[node]: node for node in graph.nodes}
        graph = Graph(nodes=list(ids),
                      edges=[(name[u], name[v]) for u, v in graph.edges])
    hierarchy = build_hierarchy(Topology(graph, ids=ids),
                                rng=draw(st.integers(0, 2**16)),
                                use_dag=draw(st.booleans()))
    pair = st.tuples(st.sampled_from(graph.nodes),
                     st.sampled_from(graph.nodes))
    call = st.one_of(
        st.tuples(st.just("route_batch"), st.lists(pair, max_size=12),
                  st.integers(0, 4), st.integers(0, 6)),
        st.tuples(st.sampled_from(["route", "flat_hops", "route_stretch"]),
                  pair),
    )
    calls = draw(st.lists(call, min_size=1, max_size=12))
    return hierarchy, draw(st.sampled_from([0, 1, 2, 256])), calls


class TestServingParity:
    """The plan cache and lazy flat sweeps against the oracle's per-hop
    walks and full BFS arrays, call for call."""

    @settings(max_examples=120, deadline=None)
    @given(scenario=serving_scenarios())
    def test_calls_equal_oracle(self, scenario):
        hierarchy, flat_cache, calls = scenario
        router = CachedRouter(hierarchy, flat_cache=flat_cache)
        oracle = serving.ReferenceRouter(hierarchy, flat_cache=flat_cache)
        for call in calls:
            if call[0] == "route_batch":
                _name, pairs, flat_every, first_index = call
                requests = [Request(time=float(i), source=s, destination=d)
                            for i, (s, d) in enumerate(pairs)]
                got = router.route_batch(requests, flat_every=flat_every,
                                         first_index=first_index)
                want = [oracle.serve(request, with_flat=bool(flat_every)
                                     and (first_index + i) % flat_every == 0)
                        for i, request in enumerate(requests)]
            else:
                name, (source, destination) = call
                got = getattr(router, name)(source, destination)
                want = getattr(oracle, name)(source, destination)
            assert got == want, call
            assert (router.flat_hits, router.flat_misses) == \
                (oracle.flat_hits, oracle.flat_misses)
            assert list(router._flat) == list(oracle._flat)


DEGENERATE = {
    "erdos_renyi-p0": lambda: erdos_renyi_topology(12, p=0, rng=1),
    "fixed_degree-0": lambda: fixed_degree_topology(12, degree=0, rng=1),
    "complete": lambda: complete_topology(8),
    "star": lambda: star_topology(8),
    "line": lambda: line_topology(10),
    "ring": lambda: ring_topology(11),
}


class TestDegenerateTopologies:
    """Every ordered pair through the flat path on edgeless, complete,
    star, line and ring graphs: the cached router and the serving loop
    equal the uncached ``route_stretch``."""

    @pytest.fixture(scope="class", params=sorted(DEGENERATE))
    def degenerate(self, request):
        topo = DEGENERATE[request.param]()
        nodes = sorted(topo.graph.nodes)
        pairs = [(s, d) for s in nodes for d in nodes]
        return topo, build_hierarchy(topo, rng=3), pairs

    def test_route_stretch_matches_uncached(self, degenerate):
        _topo, hierarchy, pairs = degenerate
        router = CachedRouter(hierarchy, flat_cache=4)
        for source, destination in pairs:
            assert router.route_stretch(source, destination) == \
                route_stretch(hierarchy, source, destination)

    def test_serve_workload_samples_equal_uncached(self, degenerate):
        _topo, hierarchy, pairs = degenerate
        requests = [Request(time=float(i), source=s, destination=d)
                    for i, (s, d) in enumerate(pairs)]
        collector = serve_workload(hierarchy, requests, StretchCollector(),
                                   flat_every=1, batch_size=7)
        expected = {}
        for source, destination in pairs:
            hops, flat, _stretch = route_stretch(hierarchy, source,
                                                 destination)
            if not math.isinf(flat):
                expected[(hops, flat)] = expected.get((hops, flat), 0) + 1
        assert collector.pairs == expected

    def test_hop_distance_matches_deque_bfs(self, degenerate):
        """0 for ``u == v`` and ``inf`` across components."""
        topo, _hierarchy, pairs = degenerate
        graph = topo.graph
        for source, destination in pairs:
            expected = traversal_oracle.bfs_distances(graph, source).get(
                destination, math.inf)
            assert hop_distance(graph, source, destination) == expected
            if source == destination:
                assert expected == 0


class TestUnknownNodes:
    """A node absent from the graph raises :class:`TopologyError` naming
    it, at every entry point and in either endpoint position."""

    ABSENT = 999

    @pytest.fixture(scope="class")
    def small(self):
        topo = uniform_topology(60, 0.25, rng=3)
        return topo, build_hierarchy(topo, rng=3)

    @staticmethod
    def _pairs(topo):
        node = sorted(topo.graph.nodes)[0]
        absent = TestUnknownNodes.ABSENT
        assert absent not in topo.graph
        return [(node, absent), (absent, node)]

    def test_route(self, small):
        topo, hierarchy = small
        router = CachedRouter(hierarchy)
        for source, destination in self._pairs(topo):
            with pytest.raises(TopologyError, match="999"):
                router.route(source, destination)

    def test_serve(self, small):
        topo, hierarchy = small
        router = CachedRouter(hierarchy)
        for source, destination in self._pairs(topo):
            with pytest.raises(TopologyError, match="999"):
                router.serve(Request(time=0.0, source=source,
                                     destination=destination))

    def test_route_batch(self, small):
        topo, hierarchy = small
        router = CachedRouter(hierarchy)
        node = sorted(topo.graph.nodes)[1]
        for source, destination in self._pairs(topo):
            with pytest.raises(TopologyError, match="999"):
                router.route_batch([
                    Request(time=0.0, source=node, destination=node),
                    Request(time=0.1, source=source,
                            destination=destination)])

    def test_flat_hops(self, small):
        topo, hierarchy = small
        router = CachedRouter(hierarchy)
        for source, destination in self._pairs(topo):
            with pytest.raises(TopologyError, match="999"):
                router.flat_hops(source, destination)
        assert (router.flat_hits, router.flat_misses) == (0, 0)
        assert not router._flat

    def test_hierarchical_route(self, small):
        topo, hierarchy = small
        for source, destination in self._pairs(topo):
            with pytest.raises(TopologyError, match="999"):
                hierarchical_route(hierarchy, source, destination)

    def test_route_stretch(self, small):
        topo, hierarchy = small
        router = CachedRouter(hierarchy)
        for source, destination in self._pairs(topo):
            with pytest.raises(TopologyError, match="999"):
                router.route_stretch(source, destination)
            with pytest.raises(TopologyError, match="999"):
                route_stretch(hierarchy, source, destination)

    def test_negative_flat_cache_rejected(self, small):
        _topo, hierarchy = small
        with pytest.raises(ConfigurationError, match="flat_cache"):
            CachedRouter(hierarchy, flat_cache=-3)
