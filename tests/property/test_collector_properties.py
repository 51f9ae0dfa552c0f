"""Property tests: collector merge is associative and order-independent,
link loads equal the per-hop oracle, and the streaming quantile summary
honors its documented error bound.

These are the invariants the chunked serving pipeline rests on: any
chunking of a request stream, merged in any order, must reduce to the
same results -- that is what makes ``repro workload`` byte-identical
for every ``--jobs`` value.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectors import (
    CollectorProxy,
    HeadLoadCollector,
    LatencyCollector,
    LinkLoadCollector,
    StreamingQuantile,
    StretchCollector,
)
from repro.workload.generators import READ, WRITE, Request
from repro.workload.serve import ServedRequest

from tests.oracles.link_load import link_loads

HEADS = ("a", "b", "c", "d")


@st.composite
def served_events(draw, max_events=24, nodes=st.integers(0, 9)):
    """A list of synthetic routing outcomes, unroutable ones included."""
    events = []
    for _ in range(draw(st.integers(0, max_events))):
        op = draw(st.sampled_from([READ, WRITE]))
        if draw(st.integers(0, 9)) == 0:
            request = Request(time=0.0, source=0, destination=1, op=op)
            events.append(ServedRequest(request=request, route=None,
                                        head_path=None, hops=None))
            continue
        route = draw(st.lists(nodes, min_size=1, max_size=6))
        head_path = tuple(draw(st.lists(st.sampled_from(HEADS),
                                        min_size=1, max_size=3)))
        flat = draw(st.one_of(st.none(), st.integers(0, 8)))
        request = Request(time=0.0, source=route[0], destination=route[-1],
                          op=op)
        events.append(ServedRequest(request=request, route=route,
                                    head_path=head_path,
                                    hops=len(route) - 1, flat_hops=flat))
    return events


def make_proxy():
    return CollectorProxy([LatencyCollector(), LinkLoadCollector(),
                           HeadLoadCollector(HEADS), StretchCollector()])


def absorb(events):
    proxy = make_proxy()
    for event in events:
        proxy.process(event)
    return proxy


@given(served_events(), served_events(), served_events())
@settings(max_examples=60, deadline=None)
def test_merge_is_associative(first, second, third):
    a, b, c = absorb(first), absorb(second), absorb(third)
    left = copy.deepcopy(a).merge(copy.deepcopy(b)).merge(copy.deepcopy(c))
    right = copy.deepcopy(a).merge(
        copy.deepcopy(b).merge(copy.deepcopy(c)))
    assert left.results() == right.results()


@given(served_events(), served_events())
@settings(max_examples=60, deadline=None)
def test_merge_is_commutative(first, second):
    a, b = absorb(first), absorb(second)
    ab = copy.deepcopy(a).merge(copy.deepcopy(b))
    ba = copy.deepcopy(b).merge(copy.deepcopy(a))
    assert ab.results() == ba.results()


@given(served_events(max_events=40), st.integers(1, 6), st.randoms())
@settings(max_examples=60, deadline=None)
def test_any_chunking_in_any_order_reduces_identically(events, chunks,
                                                       random):
    """Split a stream into chunks, merge them in a shuffled order: the
    results must equal the single-pass state over the whole stream."""
    whole = absorb(events).results()
    bounds = sorted(random.randrange(len(events) + 1)
                    for _ in range(chunks - 1))
    pieces = []
    start = 0
    for bound in bounds + [len(events)]:
        pieces.append(absorb(events[start:bound]))
        start = bound
    random.shuffle(pieces)
    merged = pieces[0]
    for piece in pieces[1:]:
        merged = merged.merge(piece)
    assert merged.results() == whole


# Up to 12: repr order ("10" < "9") is not numeric order.
LINK_EVENTS = served_events(max_events=8, nodes=st.integers(0, 12))

LINK_STEPS = st.one_of(
    st.tuples(st.just("process"), LINK_EVENTS),
    st.tuples(st.just("process_batch"), LINK_EVENTS),
    st.tuples(st.just("read")),
    st.tuples(st.just("pickle")),
    # (events of the other side, read its loads first, merge into it)
    st.tuples(st.just("merge"), LINK_EVENTS, st.booleans(), st.booleans()),
)


@given(st.lists(LINK_STEPS, max_size=10))
@settings(max_examples=100, deadline=None)
def test_link_loads_equal_per_hop_oracle(steps):
    """Any interleaving of per-event and batch absorption, mid-stream
    reads, pickling with hops still pending, and merges with pending
    hops on either side ends with the oracle's ``loads``, key order
    included."""
    collector = LinkLoadCollector()
    absorbed = []
    for step in steps:
        kind = step[0]
        if kind == "process":
            for event in step[1]:
                collector.process(event)
            absorbed += step[1]
        elif kind == "process_batch":
            collector.process_batch(step[1])
            absorbed += step[1]
        elif kind == "read":
            assert list(collector.loads.items()) == \
                list(link_loads(absorbed).items())
        elif kind == "pickle":
            collector = pickle.loads(pickle.dumps(collector))
        else:
            _kind, events, read_other, into_other = step
            other = LinkLoadCollector()
            other.process_batch(events)
            if read_other:
                other.loads  # folds its pending hops
            if into_other:
                collector = other.merge(collector)
                absorbed = events + absorbed
            else:
                collector.merge(other)
                absorbed += events
    assert list(collector.loads.items()) == \
        list(link_loads(absorbed).items())


@given(st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1,
                max_size=200),
       st.integers(0, 100), st.integers(1, 16))
@settings(max_examples=80, deadline=None)
def test_quantile_error_bound(values, q, exact_cap):
    """Percentiles stay within one bin width of the exact nearest-rank
    answer -- exact (zero error) while the summary is in its exact
    regime."""
    summary = StreamingQuantile(lo=0.0, hi=100.0, bins=256,
                                exact_cap=exact_cap)
    for value in values:
        summary.observe(value)
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    exact = sorted(values)[rank - 1]
    if summary.binned:
        assert abs(summary.percentile(q) - exact) <= summary.width
    else:
        assert summary.percentile(q) == exact
    assert summary.min == min(values)
    assert summary.max == max(values)


@given(st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=0,
                max_size=60),
       st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=0,
                max_size=60))
@settings(max_examples=60, deadline=None)
def test_quantile_merge_equals_single_stream(left_values, right_values):
    """Merging two partial summaries equals one summary over the
    concatenated stream, in either merge order."""

    def summarize(values):
        summary = StreamingQuantile(lo=0.0, hi=50.0, bins=64, exact_cap=8)
        for value in values:
            summary.observe(value)
        return summary

    whole = summarize(left_values + right_values)
    ab = summarize(left_values).merge(summarize(right_values))
    ba = summarize(right_values).merge(summarize(left_values))
    for merged in (ab, ba):
        assert merged.count == whole.count
        assert merged.binned == whole.binned
        assert merged.counts == whole.counts


def test_quantile_matches_batch_percentiles_at_scale():
    """10^4 samples: the documented bound against exact batch
    percentiles, in both the exact and the collapsed regime."""
    rng = np.random.default_rng(2024)
    values = rng.gamma(shape=2.0, scale=8.0, size=10_000).clip(0.0, 100.0)
    exact_regime = StreamingQuantile(lo=0.0, hi=100.0, bins=512,
                                     exact_cap=20_000)
    binned_regime = StreamingQuantile(lo=0.0, hi=100.0, bins=512,
                                      exact_cap=64)
    for value in values:
        exact_regime.observe(value)
        binned_regime.observe(value)
    assert not exact_regime.binned
    assert binned_regime.binned
    ordered = np.sort(values)
    for q in (1, 25, 50, 75, 90, 99, 100):
        rank = max(1, math.ceil(q / 100.0 * values.size))
        batch = ordered[rank - 1]
        assert exact_regime.percentile(q) == batch
        assert abs(binned_regime.percentile(q) - batch) <= \
            binned_regime.width
    assert exact_regime.mean == pytest.approx(float(values.mean()))
