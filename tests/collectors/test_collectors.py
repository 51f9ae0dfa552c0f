"""Unit tests for the collector pipeline and each built-in collector."""

import math
import pickle

import pytest

from repro.collectors import (
    CollectorProxy,
    DataCollector,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StreamingQuantile,
    StretchCollector,
)
from repro.util.errors import ConfigurationError
from repro.workload.generators import READ, WRITE, Request
from repro.workload.serve import ServedRequest


def served(route, head_path=None, flat_hops=None, op=READ):
    request = Request(time=0.0, source=route[0] if route else 0,
                      destination=route[-1] if route else 0, op=op)
    if route is None:
        return ServedRequest(request=request, route=None, head_path=None,
                             hops=None)
    return ServedRequest(request=request, route=route,
                         head_path=head_path or (route[0],),
                         hops=len(route) - 1, flat_hops=flat_hops)


class TestRegistry:
    def test_base_protocol_is_abstract(self):
        collector = DataCollector()
        with pytest.raises(NotImplementedError):
            collector.process(None)
        with pytest.raises(NotImplementedError):
            collector.results()


class TestCollectorProxy:
    def test_fan_out_and_nested_results(self):
        proxy = CollectorProxy([LatencyCollector(), LinkLoadCollector()])
        proxy.process(served([1, 2, 3]))
        results = proxy.results()
        assert results["latency"]["served"] == 1
        assert results["link_load"]["traversals"] == 2
        assert proxy["latency"].reads == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            CollectorProxy([LatencyCollector(), LatencyCollector()])

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            CollectorProxy([])["nope"]

    def test_merge_requires_matching_sets(self):
        ours = CollectorProxy([LatencyCollector()])
        theirs = CollectorProxy([LinkLoadCollector()])
        with pytest.raises(ConfigurationError):
            ours.merge(theirs)

    def test_merge_matches_by_name(self):
        ours = CollectorProxy([LatencyCollector(), LinkLoadCollector()])
        theirs = CollectorProxy([LinkLoadCollector(), LatencyCollector()])
        ours.process(served([1, 2]))
        theirs.process(served([2, 3, 4]))
        merged = ours.merge(theirs).results()
        assert merged["latency"]["served"] == 2
        assert merged["link_load"]["traversals"] == 3

    def test_cross_type_merge_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyCollector().merge(LinkLoadCollector())

    def test_proxy_is_picklable(self):
        # Chunk collectors travel back from worker processes.
        proxy = CollectorProxy([LatencyCollector(), StretchCollector()])
        proxy.process(served([1, 2, 3], flat_hops=2))
        clone = pickle.loads(pickle.dumps(proxy))
        assert clone.results() == proxy.results()


class TestLatencyCollector:
    def test_counts_and_percentiles(self):
        collector = LatencyCollector()
        for route in ([1, 2], [1, 2, 3], [1, 2, 3, 4], None):
            collector.process(served(route))
        collector.process(served([5, 6], op=WRITE))
        results = collector.results()
        assert results["requests"] == 5
        assert results["served"] == 4
        assert results["unroutable"] == 1
        assert results["reads"] == 3 and results["writes"] == 1
        assert results["p50"] == 1.0 and results["max"] == 3.0

    def test_merge_adds_counts(self):
        ours, theirs = LatencyCollector(), LatencyCollector()
        ours.process(served([1, 2]))
        theirs.process(served(None))
        assert ours.merge(theirs).results()["requests"] == 2


class TestLinkLoadCollector:
    def test_canonicalizes_direction(self):
        collector = LinkLoadCollector()
        collector.process(served([1, 2]))
        collector.process(served([2, 1]))
        results = collector.results()
        assert results["links_used"] == 1
        assert results["traversals"] == 2 and results["max"] == 2

    def test_empty_results_are_nan(self):
        results = LinkLoadCollector().results()
        assert results["links_used"] == 0
        assert math.isnan(results["mean"])


class TestHeadLoadCollector:
    def test_idle_heads_count_in_balance(self):
        collector = HeadLoadCollector(heads=("a", "b", "c", "d"))
        for _ in range(4):
            collector.process(served([1, 2], head_path=("a",)))
        results = collector.results()
        assert results["heads"] == 4 and results["handled"] == 4
        assert results["mean"] == 1.0 and results["max"] == 4
        assert results["imbalance"] == 4.0
        assert results["jain"] == pytest.approx(0.25)  # 1/n: one hot head

    def test_balanced_load_has_jain_one(self):
        collector = HeadLoadCollector(heads=("a", "b"))
        collector.process(served([1, 2], head_path=("a",)))
        collector.process(served([3, 4], head_path=("b",)))
        assert collector.results()["jain"] == pytest.approx(1.0)

    def test_merge_unions_head_sets(self):
        ours = HeadLoadCollector(heads=("a",))
        theirs = HeadLoadCollector(heads=("b",))
        theirs.process(served([1, 2], head_path=("b",)))
        results = ours.merge(theirs).results()
        assert results["heads"] == 2 and results["handled"] == 1


class TestStretchCollector:
    def test_ratios_from_pairs(self):
        collector = StretchCollector()
        collector.process(served([1, 2, 3], flat_hops=2))  # stretch 1.0
        collector.process(served([1, 2, 3, 4], flat_hops=2))  # stretch 1.5
        collector.process(served([1], flat_hops=0))  # 0-hop pair -> 1.0
        results = collector.results()
        assert results["sampled"] == 3
        assert results["max"] == 1.5
        assert results["mean"] == pytest.approx((1.0 + 1.5 + 1.0) / 3)

    def test_unsampled_and_unroutable_skipped(self):
        collector = StretchCollector()
        collector.process(served([1, 2]))  # flat_hops None: not sampled
        collector.process(served(None))
        assert collector.results()["sampled"] == 0

    def test_merge_adds_pair_counts(self):
        ours, theirs = StretchCollector(), StretchCollector()
        ours.process(served([1, 2, 3], flat_hops=2))
        theirs.process(served([1, 2, 3], flat_hops=2))
        merged = ours.merge(theirs)
        assert merged.pairs == {(2, 2): 2}


class TestStreamingQuantile:
    def test_exact_regime_matches_nearest_rank(self):
        summary = StreamingQuantile()
        for value in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            summary.observe(value)
        assert summary.percentile(50) == 5.0
        assert summary.percentile(99) == 10.0
        assert summary.mean == pytest.approx(5.5)
        assert not summary.binned

    def test_weighted_observe(self):
        summary = StreamingQuantile()
        summary.observe(3.0, count=99)
        summary.observe(100.0, count=1)
        assert summary.percentile(50) == 3.0
        assert summary.count == 100

    def test_collapse_beyond_cap_bounds_error(self):
        summary = StreamingQuantile(lo=0.0, hi=100.0, bins=1000, exact_cap=8)
        values = [i * 0.37 for i in range(50)]
        for value in values:
            summary.observe(value)
        assert summary.binned
        exact = sorted(values)[24]  # nearest-rank p50 over 50 samples
        assert abs(summary.percentile(50) - exact) <= summary.width
        assert summary.min == 0.0 and summary.max == values[-1]

    def test_merge_collapses_to_common_regime(self):
        exact = StreamingQuantile(lo=0.0, hi=10.0, bins=100, exact_cap=4)
        binned = StreamingQuantile(lo=0.0, hi=10.0, bins=100, exact_cap=4)
        for value in (1.0, 2.0):
            exact.observe(value)
        for value in (1.0, 3.0, 5.0, 7.0, 9.0):
            binned.observe(value)
        assert binned.binned and not exact.binned
        merged = exact.merge(binned)
        assert merged.binned
        assert merged.count == 7

    def test_parameter_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingQuantile(bins=10).merge(StreamingQuantile(bins=20))
        with pytest.raises(ConfigurationError):
            StreamingQuantile().merge(LatencyCollector())

    def test_invalid_construction_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingQuantile(lo=5.0, hi=5.0)
        with pytest.raises(ConfigurationError):
            StreamingQuantile(bins=0)

    def test_empty_summary_is_nan(self):
        results = StreamingQuantile().results()
        assert results["count"] == 0
        assert math.isnan(results["p50"]) and math.isnan(results["mean"])
