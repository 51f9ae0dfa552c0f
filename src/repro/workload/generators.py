"""Lazy request-stream generators for the traffic-serving layer.

Every generator yields :class:`Request` events one at a time and draws
its randomness in fixed-size numpy batches, so memory stays bounded by
the batch size (a few thousand events) no matter how long the schedule
is -- a 10^6-request schedule never exists as a list.  Streams are a
pure function of their ``rng``: replaying with an equally seeded
generator reproduces the exact event sequence.

Three families, mirroring the shapes the serving literature uses:

* :func:`poisson_requests` -- Poisson arrivals (exponential
  inter-arrival gaps at ``rate`` events/second), uniformly random
  sources, destinations drawn uniformly or from a
  :class:`ZipfPopularity` (the skewed content/aggregator-popularity
  case);
* :func:`ycsb_requests` -- the YCSB-style read/write mix: each event is
  a read with probability ``read_fraction``, addressed to the owner of
  a Zipf-ranked key (keys are the nodes themselves: one object per
  node);
* :func:`trace_requests` -- replay of recorded ``(time, source,
  destination[, op[, size]])`` events from any iterable, validated
  lazily.
"""

from typing import NamedTuple

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng

READ = "read"
WRITE = "write"

# Randomness is drawn in batches of this many events; the only
# per-stream state is the current batch, so generator memory is O(1) in
# the schedule length.
BATCH = 8192


class Request(NamedTuple):
    """One serving event.

    ``time`` is seconds since the stream's start, ``source`` /
    ``destination`` are node identifiers, ``op`` is ``"read"`` or
    ``"write"``, ``size`` an abstract payload size (bytes; informative
    only -- the collectors count requests and hops, not bytes).
    """

    time: float
    source: int
    destination: int
    op: str = READ
    size: int = 1


class ZipfPopularity:
    """Zipf(``alpha``) popularity over a ranked item population.

    Item ``rank`` (0-based) carries weight ``1 / (rank + 1) ** alpha``;
    ``alpha = 0`` degenerates to uniform, ``alpha ~ 0.8-1.2`` covers the
    skews measured for web/CDN/IIoT traffic.  Sampling is one uniform
    draw plus a ``searchsorted`` against the precomputed CDF, so batch
    draws stay vectorized.
    """

    def __init__(self, items, alpha):
        self.items = np.asarray(list(items))
        if self.items.size == 0:
            raise ConfigurationError("popularity needs at least one item")
        if alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        weights = 1.0 / np.power(
            np.arange(1, self.items.size + 1, dtype=float), self.alpha)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]

    def sample_ranks(self, rng, size):
        """``size`` item *ranks* (0-based), most popular = rank 0."""
        return np.searchsorted(self._cdf, rng.random(size), side="right")

    def sample(self, rng, size):
        """``size`` items drawn by popularity."""
        return self.items[self.sample_ranks(rng, size)]

    def pmf(self):
        """The exact probability of each rank (diagnostics/tests)."""
        probs = np.empty_like(self._cdf)
        probs[0] = self._cdf[0]
        probs[1:] = np.diff(self._cdf)
        return probs


def _node_array(nodes):
    nodes = np.asarray(list(nodes))
    if nodes.size == 0:
        raise ConfigurationError("a workload needs at least one node")
    return nodes


def poisson_requests(nodes, count, rng=None, rate=100.0, popularity=None,
                     op=READ, size=1, batch=BATCH):
    """Lazy Poisson-arrival request stream over ``nodes``.

    Arrivals are a Poisson process of ``rate`` events/second (timestamps
    are the cumulative exponential gaps); sources are uniform over
    ``nodes``; destinations are uniform too unless a
    :class:`ZipfPopularity` (or any object with ``sample(rng, size)``)
    is given.  Source and destination are drawn independently, so
    self-addressed requests occur with probability ~1/n and serve as
    zero-hop events.  Yields exactly ``count`` requests.
    """
    nodes = _node_array(nodes)
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    rng = as_rng(rng)
    clock = 0.0
    remaining = count
    while remaining > 0:
        draw = min(remaining, batch)
        gaps = rng.exponential(1.0 / rate, size=draw)
        times = clock + np.cumsum(gaps)
        clock = float(times[-1])
        sources = nodes[rng.integers(0, nodes.size, size=draw)]
        if popularity is None:
            destinations = nodes[rng.integers(0, nodes.size, size=draw)]
        else:
            destinations = popularity.sample(rng, draw)
        for time, source, destination in zip(
                times.tolist(), sources.tolist(), destinations.tolist()):
            yield Request(time, source, destination, op, size)
        remaining -= draw


def ycsb_requests(nodes, count, rng=None, rate=100.0, read_fraction=0.95,
                  alpha=0.8, popularity=None, size=1, batch=BATCH):
    """YCSB-style read/write mix against node-owned objects.

    Each node owns one object, ranked by its position in ``nodes`` (rank
    0 = most popular) under Zipf(``alpha``) unless an explicit
    ``popularity`` is supplied.  Every event reads the object's owner
    with probability ``read_fraction`` and writes it otherwise --
    ``read_fraction=0.95`` is YCSB workload B, ``0.5`` workload A.
    Sources are uniform; arrivals are Poisson at ``rate``.
    """
    nodes = _node_array(nodes)
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if rate <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate}")
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigurationError(
            f"read_fraction must be in [0, 1], got {read_fraction}")
    rng = as_rng(rng)
    if popularity is None:
        popularity = ZipfPopularity(nodes, alpha)
    clock = 0.0
    remaining = count
    while remaining > 0:
        draw = min(remaining, batch)
        gaps = rng.exponential(1.0 / rate, size=draw)
        times = clock + np.cumsum(gaps)
        clock = float(times[-1])
        sources = nodes[rng.integers(0, nodes.size, size=draw)]
        destinations = popularity.sample(rng, draw)
        reads = rng.random(draw) < read_fraction
        for time, source, destination, read in zip(
                times.tolist(), sources.tolist(), destinations.tolist(),
                reads.tolist()):
            yield Request(time, source, destination,
                          READ if read else WRITE, size)
        remaining -= draw


def trace_requests(events):
    """Replay recorded events as a lazy :class:`Request` stream.

    ``events`` is any iterable of :class:`Request` instances or tuples
    ``(time, source, destination[, op[, size]])``.  Timestamps must be
    non-decreasing; violations raise :class:`ConfigurationError` at the
    offending event (lazily -- the trace is never materialized).
    """
    last = None
    for event in events:
        request = event if isinstance(event, Request) else Request(*event)
        if last is not None and request.time < last:
            raise ConfigurationError(
                f"trace times must be non-decreasing; {request.time} "
                f"follows {last}")
        last = request.time
        yield request
