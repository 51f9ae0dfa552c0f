"""Per-request latency accounting (hop-count service model).

The abstract service model every hierarchy-routing evaluation uses: one
latency unit per physical hop, so a request's latency is its route
length.  The collector keeps an exact hop-count histogram inside a
:class:`~repro.collectors.summary.StreamingQuantile` (hop counts are
small integers, so the summary never leaves its exact regime), plus
read/write and unroutable counters.
"""

from collections import Counter

from repro.collectors.base import DataCollector
from repro.collectors.summary import StreamingQuantile
from repro.workload.generators import WRITE


class LatencyCollector(DataCollector):
    """p50/p99/mean latency in hops, plus op and unroutable counts."""

    name = "latency"

    def __init__(self):
        self.hops = StreamingQuantile(lo=0.0, hi=4096.0)
        self.reads = 0
        self.writes = 0
        self.unroutable = 0

    def process(self, served):
        if served.route is None:
            self.unroutable += 1
            return
        if served.request.op == WRITE:
            self.writes += 1
        else:
            self.reads += 1
        self.hops.observe(served.hops)

    def process_batch(self, batch):
        """Counter-based fast path; state identical to the event loop.

        The quantile summary's state is a pure function of the observed
        multiset, so feeding each distinct hop count once with its
        multiplicity lands in exactly the per-event state.
        """
        routed = [served for served in batch if served.route is not None]
        self.unroutable += len(batch) - len(routed)
        writes = sum(1 for served in routed if served.request.op == WRITE)
        self.writes += writes
        self.reads += len(routed) - writes
        for hops, count in Counter(s.hops for s in routed).items():
            self.hops.observe(hops, count=count)

    def merge(self, other):
        self._check_mergeable(other)
        self.hops.merge(other.hops)
        self.reads += other.reads
        self.writes += other.writes
        self.unroutable += other.unroutable
        return self

    def results(self):
        summary = self.hops.results()
        return {
            "requests": summary["count"] + self.unroutable,
            "served": summary["count"],
            "unroutable": self.unroutable,
            "reads": self.reads,
            "writes": self.writes,
            "p50": summary["p50"],
            "p99": summary["p99"],
            "mean": summary["mean"],
            "max": summary["max"],
        }
