"""Pluggable measurement pipeline for the traffic-serving layer.

Icarus-style execution collectors: the serving loop hands every routed
request to a :class:`~repro.collectors.base.DataCollector`; a
:class:`~repro.collectors.base.CollectorProxy` fans one event out to
any set of collectors.  Every collector keeps *mergeable* partial state
-- counting dicts and the order-independent
:class:`~repro.collectors.summary.StreamingQuantile` -- so results from
independently served request chunks compose exactly (associatively and
order-independently), which is what lets the ``run_workload``
experiment family fan chunks out over any
:class:`~repro.experiments.engine.Executor` and still produce
byte-identical tables.
"""

from repro.collectors.base import CollectorProxy, DataCollector
from repro.collectors.latency import LatencyCollector
from repro.collectors.load import HeadLoadCollector, LinkLoadCollector
from repro.collectors.stretch import StretchCollector
from repro.collectors.summary import StreamingQuantile

__all__ = [
    "CollectorProxy",
    "DataCollector",
    "HeadLoadCollector",
    "LatencyCollector",
    "LinkLoadCollector",
    "StreamingQuantile",
    "StretchCollector",
]
