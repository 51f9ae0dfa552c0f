"""Parity: the per-frame step equals the per-receiver oracle.

:class:`~repro.runtime.simulator.StepSimulator` hands every receiver of a
frame one shared cache entry, memoizes the float-led clustering keys on
it, runs the polite N1 in one cache scan, calls ``always``-guarded
actions directly, sizes each frame once by exact type with memoized key
bytes, and the legitimacy predicates compute the ground truth once per
CSR snapshot and judge each cache entry once per two-hop check.
``tests/oracles/simulator.py`` does each of those the direct way.  Both
run side by side over random graphs, every stack configuration, channel
and daemon, every fault injector and mid-run topology swaps; after every
step the shared variables, cache payloads and timestamps, fired
commands, RNG state, traffic counters and predicate values must be
equal.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.dynamic import DynamicTopology
from repro.graph.generators import Topology
from repro.metrics.overhead import payload_bytes
from repro.protocols.base import Protocol
from repro.protocols.clustering import DensityClusteringProtocol
from repro.protocols.stack import standard_stack
from repro.runtime.channel import (
    BernoulliLossChannel,
    IdealChannel,
    SlottedContentionChannel,
)
from repro.runtime.daemon import (
    CentralDaemon,
    RandomSubsetDaemon,
    SynchronousDaemon,
)
from repro.runtime.guarded import GuardedCommand, Program, always
from repro.runtime.node import CacheEntry, NodeRuntime
from repro.runtime.simulator import StepSimulator
from repro.stabilization import faults, predicates
from tests.oracles import simulator as oracle
from tests.property.strategies import graphs

CONFIGURATIONS = {
    "no DAG": {"use_dag": False},
    "DAG": {"use_dag": True},
    "DAG + fusion": {"use_dag": True, "fusion": True},
    "DAG + incumbent": {"use_dag": True, "order": "incumbent"},
    "DAG + randomized N1": {"use_dag": True, "variant": "randomized"},
}

CHANNELS = {
    "ideal": IdealChannel,
    "bernoulli": lambda: BernoulliLossChannel(0.3),
    "slotted": lambda: SlottedContentionChannel(3),
}

DAEMONS = {
    "synchronous": SynchronousDaemon,
    "random-subset": lambda: RandomSubsetDaemon(0.6),
    "central": CentralDaemon,
}


def _lasting_ghosts(runtime, _rng):
    """Ghost entries stamped far in the future: they never expire, so the
    programs read them.  They claim the node's own DAG name, and without
    a ``tie_id`` the ghost's label stands in for it."""
    for ghost in (1000, 1001):
        runtime.caches[ghost] = CacheEntry(
            payload={"dag_id": runtime.shared.get("dag_id"),
                     "density": Fraction(99), "head": None,
                     "neighbors": frozenset()},
            refreshed_at=10**9)


FAULTS = {
    "clear_caches": faults.clear_caches,
    "clear_shared": faults.clear_shared,
    "duplicate_dag_ids": faults.duplicate_dag_ids,
    "garbage_shared": faults.garbage_shared,
    "fabricate_caches": faults.fabricate_caches([1000, 1001]),
    "lasting_ghosts": _lasting_ghosts,
    "total_corruption": faults.total_corruption,
}


def _options(config):
    options = CONFIGURATIONS[config]
    return {"order": options.get("order", "basic"),
            "fusion": options.get("fusion", False),
            "use_dag": options["use_dag"]}


# Every configuration's clustering layer, fast and oracle, for the
# cross-configuration R2 check.
_LAYERS = [(DensityClusteringProtocol(**_options(config)),
            oracle.OracleClusteringProtocol(**_options(config)))
           for config in CONFIGURATIONS]


def _twins(topology, protocol, oracle_protocol, channel, daemon, seed,
           timeout):
    fast = StepSimulator(topology, protocol, channel=CHANNELS[channel](),
                         rng=seed, cache_timeout=timeout,
                         daemon=DAEMONS[daemon]())
    slow = oracle.OracleSimulator(topology, oracle_protocol,
                                  channel=CHANNELS[channel](), rng=seed,
                                  cache_timeout=timeout,
                                  daemon=DAEMONS[daemon]())
    return fast, slow


def _stack_twins(topology, config, channel, daemon, seed, timeout):
    stack = standard_stack(namespace=4 * max(len(topology.graph), 1),
                           **CONFIGURATIONS[config])
    return _twins(topology, stack, oracle.oracle_stack(stack), channel,
                  daemon, seed, timeout)


def _caches(sim):
    return {node: [(q, entry.payload, entry.refreshed_at)
                   for q, entry in runtime.caches.items()]
            for node, runtime in sim.runtimes.items()}


def assert_same_state(fast, slow):
    assert fast.now == slow.now
    assert list(fast.runtimes) == list(slow.runtimes)
    assert {n: r.shared for n, r in fast.runtimes.items()} \
        == {n: r.shared for n, r in slow.runtimes.items()}
    assert _caches(fast) == _caches(slow)
    assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    assert fast.traffic == slow.traffic


class Judge:
    """The fast side's predicates as simulations use them: a
    :class:`~repro.stabilization.predicates.GroundTruth` kept while the
    graph keeps its snapshot, and one stack predicate per configuration
    kept across steps.  Each verdict must equal the oracle's, which
    recomputes everything from the graph."""

    def __init__(self):
        self.truth = None
        self.stack = {name: predicates.make_stack_predicate(**_options(name))
                      for name in CONFIGURATIONS}

    def check(self, fast, slow):
        if self.truth is None or not self.truth.describes(fast.graph):
            self.truth = predicates.GroundTruth(fast.graph)
        truth = self.truth
        for name in ("neighborhood_accurate", "two_hop_accurate",
                     "densities_legitimate"):
            assert getattr(predicates, name)(fast, truth) \
                == getattr(oracle, name)(slow), name
        assert predicates.naming_legitimate(fast) \
            == oracle.naming_legitimate(slow)
        for config, predicate in self.stack.items():
            options = _options(config)
            assert predicates.clustering_legitimate(fast, truth=truth,
                                                    **options) \
                == oracle.clustering_legitimate(slow, **options), config
            assert predicate(fast) == oracle.stack_legitimate(slow, **options), \
                config


def assert_same_r2_everywhere(fast, slow):
    """R2 of every configuration, run in turn over the same cache entries
    (their memos included), decides as the oracle does."""
    for node, runtime in fast.runtimes.items():
        twin = slow.runtimes[node]
        for layer, oracle_layer in _LAYERS:
            mine = _clone(runtime)
            theirs = _clone(twin)
            layer._r2_head(mine, None)
            oracle_layer._r2_head(theirs, None)
            assert mine.shared == theirs.shared, (node, layer.order,
                                                  layer.fusion,
                                                  layer.use_dag)


def _clone(runtime):
    """A runtime over the same cache entries with its own shared dict."""
    return NodeRuntime(node_id=runtime.node_id, tie_id=runtime.tie_id,
                       cache_timeout=runtime.cache_timeout,
                       shared=dict(runtime.shared),
                       caches=dict(runtime.caches))


def _inject(fast, slow, fault, fraction):
    nodes = list(fast.runtimes)
    if not nodes:
        return
    fast_nodes = faults.random_subset(nodes, fraction, fast.rng)
    slow_nodes = faults.random_subset(nodes, fraction, slow.rng)
    assert fast_nodes == slow_nodes
    fast.corrupt(FAULTS[fault], nodes=fast_nodes)
    slow.corrupt(FAULTS[fault], nodes=slow_nodes)


def _step_both(fast, slow, judge):
    assert fast.step() == slow.step()
    assert_same_state(fast, slow)
    judge.check(fast, slow)
    assert_same_r2_everywhere(fast, slow)


_common = {
    "config": st.sampled_from(sorted(CONFIGURATIONS)),
    "channel": st.sampled_from(sorted(CHANNELS)),
    "daemon": st.sampled_from(sorted(DAEMONS)),
    "seed": st.integers(0, 2**16),
    "timeout": st.integers(1, 4),
}
_faults = st.tuples(st.just("fault"), st.sampled_from(sorted(FAULTS)),
                    st.sampled_from([0.3, 1.0]))


@st.composite
def _tie_ids(draw, graph):
    nodes = list(graph)
    ranks = draw(st.permutations(range(len(nodes))))
    return {node: 10 * rank + 3 for node, rank in zip(nodes, ranks)}


class TestRandomGraphs:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), graph=graphs(min_nodes=1, max_nodes=9,
                                        edge_bias=0.5),
           steps=st.integers(3, 12), **_common)
    def test_per_frame_step_equals_oracle(self, data, graph, steps, config,
                                          channel, daemon, seed, timeout):
        ids = data.draw(_tie_ids(graph))
        fast, slow = _stack_twins(Topology(graph, ids=ids), config, channel,
                                  daemon, seed, timeout)
        judge = Judge()
        events = data.draw(st.dictionaries(
            st.integers(0, steps - 1),
            st.one_of(_faults, st.just(("replace",))), max_size=3))
        assert_same_state(fast, slow)
        for step in range(steps):
            event = events.get(step)
            if event is not None:
                if event[0] == "fault":
                    _inject(fast, slow, *event[1:])
                    assert_same_state(fast, slow)
                else:
                    # Same nodes, new edges: the graph object changes too.
                    rewired = data.draw(graphs(min_nodes=len(graph),
                                               max_nodes=len(graph),
                                               edge_bias=0.5))
                    topology = Topology(rewired, ids=ids)
                    fast.replace_topology(topology)
                    slow.replace_topology(topology)
                judge.check(fast, slow)
            _step_both(fast, slow, judge)


def _apply(event, dynamics, ids, place, fast, slow):
    """Inject a fault, or move or churn the live graph in place; return
    the node identifiers after the event."""
    if event[0] == "fault":
        _inject(fast, slow, *event[1:])
        return ids
    if event[0] == "move":
        update = dynamics.move(place.uniform(0, 1, size=(len(ids), 2)))
    else:
        departed = ids[:1] if len(ids) > 2 else []
        arrival = max(ids) + 1
        update = dynamics.apply_churn(
            departed, [(arrival, place.uniform(0, 1, size=2))])
        ids = [node for node in ids if node not in departed] + [arrival]
    fast.set_topology(update.topology)
    slow.set_topology(update.topology)
    return ids


class TestDynamicTopology:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), count=st.integers(2, 9),
           steps=st.integers(4, 12), **_common)
    def test_in_place_rebase_equals_oracle(self, data, count, steps, config,
                                           channel, daemon, seed, timeout):
        """``set_topology`` with the live graph of a
        :class:`DynamicTopology` rebased in place: the graph object stays,
        its snapshot changes."""
        place = np.random.default_rng(seed)
        ids = list(range(count))
        dynamics = DynamicTopology(place.uniform(0, 1, size=(count, 2)),
                                   0.45)
        fast, slow = _stack_twins(dynamics.topology, config, channel,
                                  daemon, seed, timeout)
        judge = Judge()
        events = data.draw(st.dictionaries(
            st.integers(0, steps - 1),
            st.one_of(_faults, st.just(("move",)), st.just(("churn",))),
            max_size=4))
        for step in range(steps):
            event = events.get(step)
            if event is not None:
                ids = _apply(event, dynamics, ids, place, fast, slow)
                judge.check(fast, slow)
            _step_both(fast, slow, judge)

    def test_truth_follows_in_place_rebase(self):
        """Legitimate on one snapshot, then the live graph is rebased: the
        caches now describe the old edges, so legitimacy must drop."""
        place = np.random.default_rng(3)
        dynamics = DynamicTopology(place.uniform(0, 1, size=(12, 2)), 0.45)
        fast, slow = _stack_twins(dynamics.topology, "DAG", "ideal",
                                  "synchronous", 3, 2)
        judge = Judge()
        for _ in range(12):
            _step_both(fast, slow, judge)
        assert judge.stack["DAG"](fast)
        graph = fast.graph
        while not dynamics.move(place.uniform(0, 1, size=(12, 2))).delta:
            pass
        fast.set_topology(dynamics.topology)
        slow.set_topology(dynamics.topology)
        assert fast.graph is graph
        assert not oracle.stack_legitimate(slow)
        judge.check(fast, slow)


class _Name(str):
    """A str subclass: sized through the ``isinstance`` fallback."""


class SharedPayloadProtocol(Protocol):
    """Broadcasts ``runtime.shared`` itself, then rewrites it: frames
    must carry the values of broadcast time.  One command's guard draws
    from the RNG, so guards must be evaluated as the oracle does."""

    def initialize(self, runtime, rng):
        runtime.shared["count"] = int(rng.integers(0, 5))
        runtime.shared["heard"] = frozenset()
        runtime.shared["ratio"] = Fraction(0)

    def payload(self, runtime):
        return runtime.shared

    def program(self):
        def bump(runtime, rng):
            count = runtime.shared["count"] + 1 + int(rng.integers(0, 3))
            # Every sizer branch: bool, None, str, float, containers and
            # types outside the exact-type table (np.int64, a str
            # subclass).
            runtime.shared.update(
                count=count, odd=count % 2 == 1, label="é" * (count % 3),
                pair=(count, None), weights=[0.5 * count, True],
                raw=np.int64(count), name=_Name("n%d" % count))

        def listen(runtime, _rng):
            heard = runtime.cached_all("count")
            runtime.shared["heard"] = frozenset(heard.items())
            runtime.shared["ratio"] = Fraction(sum(heard.values()),
                                               1 + len(heard))
            runtime.shared["by_sender"] = dict(heard)

        def coin(_runtime, rng):
            return rng.random() < 0.5

        def flip(runtime, _rng):
            runtime.shared["odd"] = not runtime.shared.get("odd")

        return Program([GuardedCommand("bump", always, bump),
                        GuardedCommand("flip", coin, flip),
                        GuardedCommand("listen", always, listen)])


class TestSharedPayload:
    @settings(max_examples=30, deadline=None)
    @given(graph=graphs(min_nodes=1, max_nodes=8, edge_bias=0.5),
           steps=st.integers(1, 8), channel=_common["channel"],
           daemon=_common["daemon"], seed=_common["seed"],
           timeout=_common["timeout"])
    def test_payload_is_snapshotted_per_frame(self, graph, steps, channel,
                                              daemon, seed, timeout):
        protocol = SharedPayloadProtocol()
        fast, slow = _twins(Topology(graph), protocol, protocol, channel,
                            daemon, seed, timeout)
        for _ in range(steps):
            assert fast.step() == slow.step()
            assert_same_state(fast, slow)


# ----------------------------------------------------------------------
# the pieces of the step on their own
# ----------------------------------------------------------------------

# Densities around the float range's edges: overflowing ones image to
# +-inf, tiny ones to 0.0 or to a shared subnormal.
_HUGE = 2 ** 1024
_densities = st.one_of(
    st.none(),
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-3, 3).map(lambda k: _HUGE + k)),
    st.builds(Fraction, st.integers(-3, 3).map(lambda k: -_HUGE + k)),
    st.builds(Fraction, st.integers(1, 3),
              st.integers(0, 3).map(lambda k: _HUGE + k)),
    st.builds(Fraction, st.integers(1, 2 ** 60), st.just(2 ** 1100)),
    st.builds(Fraction, st.integers(0, 1), st.integers(1, 3)),
)
_key_fields = st.tuples(_densities, st.booleans(),
                        st.one_of(st.none(), st.integers(0, 3)),
                        st.integers(0, 3))


def _copy(density):
    """An equal density held in a different object."""
    if density is None:
        return None
    copy = Fraction(density.numerator * 3, density.denominator * 3)
    assert copy == density and copy is not density
    return copy


class TestKeyOrder:
    """Float-led keys order exactly as the oracle's Fraction-led keys, in
    every configuration."""

    @settings(max_examples=300, deadline=None)
    @given(first=_key_fields, second=_key_fields, copied=st.booleans())
    def test_float_led_keys_order_like_fraction_led(self, first, second,
                                                    copied):
        if copied:
            second = (_copy(first[0]),) + second[1:]
        for layer, oracle_layer in _LAYERS:
            mine = [layer._key(*fields) for fields in (first, second)]
            theirs = [oracle_layer._key(*fields)
                      for fields in (first, second)]
            assert (mine[0] < mine[1]) == (theirs[0] < theirs[1])
            assert (mine[0] == mine[1]) == (theirs[0] == theirs[1])
            assert (mine[0] > mine[1]) == (theirs[0] > theirs[1])

    def test_overflowing_densities_image_to_infinity(self):
        layer = DensityClusteringProtocol(use_dag=False)
        big = layer._key(Fraction(_HUGE + 1), False, None, 1)
        bigger = layer._key(Fraction(_HUGE + 2), False, None, 2)
        assert big[0] == bigger[0] == math.inf
        assert big < bigger
        assert layer._key(Fraction(-_HUGE), False, None, 1)[0] == -math.inf
        assert layer._key(None, False, None, 1)[:2] == (-1.0, Fraction(-1))


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 40, 2 ** 40),
    st.floats(allow_nan=False), st.fractions(max_denominator=20),
    st.text(max_size=4), st.text(max_size=3).map(_Name),
    st.integers(0, 9).map(np.int64))
_keys = st.one_of(st.text(max_size=4), st.integers(0, 9), st.booleans(),
                  st.none())
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.frozensets(st.one_of(st.integers(0, 9), st.booleans(),
                                st.text(max_size=2)), max_size=4),
        st.sets(st.integers(-5, 5), max_size=4),
        st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=12)


class TestPayloadBytes:
    @settings(max_examples=300, deadline=None)
    @given(value=_payloads)
    def test_sizes_equal_isinstance_oracle(self, value):
        assert payload_bytes(value) == oracle.payload_bytes(value)
        # Twice: the second call may read the memoized key bytes.
        assert payload_bytes(value) == oracle.payload_bytes(value)

    def test_equal_keys_of_other_types_are_not_conflated(self):
        for value in ({"a": 1}, {True: 1}, {1: 1}, {1.0: 1},
                      {Fraction(1): 1}, {"a": 1}, {_Name("a"): 1}):
            assert payload_bytes(value) == oracle.payload_bytes(value)
