"""Link-load and cluster-head-load collectors.

The production-scale questions FLEAM-style IIoT serving asks of a
cluster hierarchy: which physical links carry the traffic, and how
badly does destination skew hot-spot the aggregation points (the
cluster-heads)?  Both collectors are counting dicts -- exactly
mergeable, order-independent.
"""

import math
from collections import Counter
from itertools import chain, pairwise

from repro.collectors.base import DataCollector, register_collector


@register_collector
class LinkLoadCollector(DataCollector):
    """Traversal count per physical link (undirected, canonicalized).

    Hops are counted per *directed* pair into a pending ``Counter`` --
    one C-level ``Counter.update`` per batch -- and each distinct pair
    is canonicalized (``repr`` order) only when :attr:`loads` is read,
    by :meth:`results`, :meth:`merge` or a caller.  The folded dict
    equals the one a per-hop canonicalizing loop builds, key order
    included.
    """

    name = "link_load"

    def __init__(self):
        self._loads = {}  # canonical (u, v) -> traversal count
        self._pending = Counter()  # directed (u, v) -> hops not yet folded

    @property
    def loads(self):
        """Canonical ``(u, v)`` -> traversal count, pending hops folded."""
        loads = self._loads
        if self._pending:
            for (u, v), count in self._pending.items():
                key = (u, v) if repr(u) <= repr(v) else (v, u)
                loads[key] = loads.get(key, 0) + count
            self._pending.clear()
        return loads

    def process(self, served):
        if served.route is not None:
            self._pending.update(pairwise(served.route))

    def process_batch(self, batch):
        self._pending.update(
            chain.from_iterable(
                pairwise(served.route) for served in batch if served.route is not None
            )
        )

    def merge(self, other):
        self._check_mergeable(other)
        loads = self.loads
        for key, count in other.loads.items():
            loads[key] = loads.get(key, 0) + count
        return self

    def results(self):
        if not self.loads:
            return {
                "links_used": 0,
                "traversals": 0,
                "mean": math.nan,
                "p99": math.nan,
                "max": math.nan,
            }
        counts = sorted(self.loads.values())
        total = sum(counts)
        rank = max(1, math.ceil(0.99 * len(counts)))
        return {
            "links_used": len(counts),
            "traversals": total,
            "mean": total / len(counts),
            "p99": counts[rank - 1],
            "max": counts[-1],
        }


@register_collector
class HeadLoadCollector(DataCollector):
    """Requests handled per cluster-head (hot-spotting under skew).

    Every head on a request's overlay head path -- source head,
    transit heads, destination head -- handles that request once.
    Heads that never appear still belong in the balance statistics, so
    the collector is seeded with the clustering's full head set (and
    merging unions the sets, which keeps mobility windows with changing
    head populations composable).
    """

    name = "head_load"

    def __init__(self, heads=()):
        self.loads = {head: 0 for head in heads}

    def process(self, served):
        if served.head_path is None:
            return
        loads = self.loads
        for head in served.head_path:
            loads[head] = loads.get(head, 0) + 1

    def process_batch(self, batch):
        counter = Counter(chain.from_iterable(
            served.head_path for served in batch
            if served.head_path is not None))
        loads = self.loads
        for head, count in counter.items():
            loads[head] = loads.get(head, 0) + count

    def merge(self, other):
        self._check_mergeable(other)
        loads = self.loads
        for head, count in other.loads.items():
            loads[head] = loads.get(head, 0) + count
        return self

    def results(self):
        """Balance statistics over *all* known heads (idle ones count).

        ``max/mean`` is the hot-spot factor (1.0 = perfectly balanced);
        ``jain`` is Jain's fairness index ``(sum x)^2 / (n * sum x^2)``
        (1.0 = perfectly fair, ``1/n`` = one head does everything).
        """
        if not self.loads:
            return {
                "heads": 0,
                "handled": 0,
                "mean": math.nan,
                "max": math.nan,
                "imbalance": math.nan,
                "jain": math.nan,
            }
        counts = sorted(self.loads.values())
        total = sum(counts)
        mean = total / len(counts)
        square_sum = sum(count * count for count in counts)
        if square_sum:
            jain = total * total / (len(counts) * square_sum)
        else:
            jain = math.nan
        return {
            "heads": len(counts),
            "handled": total,
            "mean": mean,
            "max": counts[-1],
            "imbalance": counts[-1] / mean if total else math.nan,
            "jain": jain,
        }
