"""Path-stretch accounting: hierarchical hops over flat hops.

Stretch is the price of routing through the hierarchy instead of flat
shortest paths.  The serving loop computes the flat denominator only
for sampled requests (``flat_every`` in :func:`~repro.workload.serve.
serve_workload`); this collector absorbs exactly those.  State is a
counting dict keyed by the ``(hier hops, flat hops)`` pair -- both
small integers -- so the partial state is exact, tiny, and composes
across chunks without any floating-point order sensitivity; ratios are
only formed at query time, in sorted key order.
"""

import math

from repro.collectors.base import DataCollector


class StretchCollector(DataCollector):
    """Mean/p99 stretch over the stretch-sampled requests."""

    name = "stretch"

    def __init__(self):
        self.pairs = {}  # (hier hops, flat hops) -> count

    def process(self, served):
        if served.route is None or served.flat_hops is None:
            return
        # A zero-hop pair (source == destination) has stretch 1 by
        # convention; it is recorded as (0, 0).
        key = (served.hops, served.flat_hops)
        self.pairs[key] = self.pairs.get(key, 0) + 1

    def merge(self, other):
        self._check_mergeable(other)
        pairs = self.pairs
        for key, count in other.pairs.items():
            pairs[key] = pairs.get(key, 0) + count
        return self

    @staticmethod
    def _ratio(hier, flat):
        return 1.0 if flat == 0 else hier / flat

    def results(self):
        if not self.pairs:
            return {
                "sampled": 0,
                "mean": math.nan,
                "p50": math.nan,
                "p99": math.nan,
                "max": math.nan,
            }
        ratios = sorted(
            (self._ratio(hier, flat), count)
            for (hier, flat), count in self.pairs.items()
        )
        total = sum(count for _, count in ratios)
        # All percentiles in one pass over the sorted ratio histogram:
        # walk it once, resolving each nearest-rank threshold as the
        # cumulative count crosses it (thresholds ascend with q, so a
        # single cursor suffices), and accumulate the weighted mean in
        # the same sweep.
        ranks = [
            (name, max(1, math.ceil(q / 100.0 * total)))
            for name, q in (("p50", 50), ("p99", 99))
        ]
        percentiles = {}
        cursor = 0
        seen = 0
        weighted = 0.0
        for ratio, count in ratios:
            seen += count
            weighted += ratio * count
            while cursor < len(ranks) and seen >= ranks[cursor][1]:
                percentiles[ranks[cursor][0]] = ratio
                cursor += 1
        return {
            "sampled": total,
            "mean": weighted / total,
            "p50": percentiles["p50"],
            "p99": percentiles["p99"],
            "max": ratios[-1][0],
        }
