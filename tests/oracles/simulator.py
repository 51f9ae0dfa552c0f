"""Step-simulator oracle: one cache copy per (receiver, frame).

:meth:`repro.runtime.simulator.StepSimulator.step` snapshots each
sender's payload once per step and hands every receiver the same
immutable :class:`~repro.runtime.node.CacheEntry`; the clustering layer
leads its keys with the density's float image, memoizes neighbor keys
on that entry and counts R1's links with set intersections; the polite
N1 scans the cache once; a program calls the action of an ``always``
guard directly; frame sizes dispatch on exact types and memoize key
bytes; the legitimacy predicates compute their ground truth once per
CSR snapshot and judge each cache entry once per two-hop check.  This
module is what all of that must equal, written the direct way: every
receiver copies the payload into its own entry
(:meth:`~repro.runtime.node.NodeRuntime.ingest`), R1 collects one
frozenset per linked pair, R2 rebuilds each Fraction-led neighbor key
from the cache, N1 lists the colliders before it compares tie
identifiers, every guard is evaluated before its action
(:meth:`~repro.runtime.guarded.GuardedCommand.fire`), sizes walk the
``isinstance`` chain, and the predicates recompute the truth from the
graph on every call.
"""

from fractions import Fraction

from repro.clustering.density import all_densities
from repro.clustering.oracle import compute_clustering
from repro.naming.renaming import is_locally_unique, new_id
from repro.protocols.base import ProtocolStack
from repro.protocols.clustering import (
    _UNKNOWN_DAG,
    UNKNOWN_DENSITY,
    DensityClusteringProtocol,
)
from repro.protocols.naming import DagNamingProtocol
from repro.runtime.frames import Frame
from repro.runtime.simulator import StepSimulator

_SCALAR_BYTES = 4
_FRACTION_BYTES = 8


def payload_bytes(value):
    """Estimated on-air bytes of one payload value, by ``isinstance``."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, Fraction):
        return _FRACTION_BYTES
    if isinstance(value, (int, float)):
        return _SCALAR_BYTES
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple, set, frozenset)):
        return 1 + sum(payload_bytes(item) for item in value)
    if isinstance(value, dict):
        return 1 + sum(payload_bytes(k) + payload_bytes(v)
                       for k, v in value.items())
    return _SCALAR_BYTES


def record_step(traffic, frames, inboxes):
    """:meth:`~repro.metrics.overhead.TrafficStats.record_step` on the
    ``isinstance`` sizer."""
    step_bytes = 0
    for frame in frames.values():
        traffic.frames_sent += 1
        step_bytes += _SCALAR_BYTES + payload_bytes(frame.payload)
    traffic.bytes_sent += step_bytes
    traffic.per_step_bytes.append(step_bytes)
    traffic.frames_delivered += sum(len(inbox) for inbox in inboxes.values())


class OracleSimulator(StepSimulator):
    """A :class:`StepSimulator` whose step ingests per receiver."""

    def step(self):
        self.now += 1
        frames = {}
        for node in self.graph:
            runtime = self.runtimes[node]
            frames[node] = Frame(sender=node,
                                 payload=self.protocol.payload(runtime))
        inboxes = self.channel.deliver(frames, self.graph, self.rng)
        record_step(self.traffic, frames, inboxes)
        for node in self.graph:
            runtime = self.runtimes[node]
            for frame in inboxes.get(node, ()):
                runtime.ingest(frame, self.now)
            runtime.expire_caches(self.now)
        fired = {}
        activated = self.daemon.select(self.runtimes, self.rng)
        order = sorted(self.runtimes, key=lambda n: self.runtimes[n].tie_id)
        for node in order:
            if node in activated:
                fired[node] = execute(self._program, self.runtimes[node],
                                      self.rng)
            else:
                fired[node] = []
        return fired


def execute(program, runtime, rng):
    """:meth:`~repro.runtime.guarded.Program.execute`, firing every
    command through its guard."""
    fired = []
    for command in program:
        if command.fire(runtime, rng):
            fired.append(command.name)
    return fired


class OracleClusteringProtocol(DensityClusteringProtocol):
    """R1 with a frozenset per linked pair; R2 with unmemoized
    Fraction-led keys, one ``max`` over a dict of them."""

    def _r1_density(self, runtime, _rng):
        neighbors = runtime.known_neighbors()
        if not neighbors:
            runtime.shared["density"] = Fraction(0)
            return
        counted = set()
        for q in neighbors:
            reported = runtime.cached(q, "neighbors") or frozenset()
            for r in reported:
                if r in neighbors and r != q:
                    counted.add(frozenset((q, r)))
        runtime.shared["density"] = Fraction(len(neighbors) + len(counted),
                                             len(neighbors))

    def _r2_head(self, runtime, _rng):
        own_key = self._own_key(runtime)
        neighbor_keys = {q: self._neighbor_key(runtime, q)
                         for q in runtime.known_neighbors()}
        best = max(neighbor_keys, key=neighbor_keys.get) if neighbor_keys \
            else None
        if not neighbor_keys or neighbor_keys[best] < own_key:
            if not self.fusion:
                self._become_head(runtime)
                return
            dominator = self._strongest_dominator(runtime, own_key)
            if dominator is None:
                self._become_head(runtime)
                return
            self._join_toward(runtime, dominator, neighbor_keys)
            return
        self._join(runtime, best)

    def _join_toward(self, runtime, dominator, neighbor_keys):
        gateways = {q: key for q, key in neighbor_keys.items()
                    if dominator in (runtime.cached(q, "neighbors")
                                     or frozenset())}
        if not gateways:
            self._become_head(runtime)
            return
        best = max(gateways, key=gateways.get)
        self._join(runtime, best)

    def _key(self, density, is_head, dag_id, tie_id):
        components = [density if density is not None else UNKNOWN_DENSITY]
        if self.order == "incumbent":
            components.append(bool(is_head))
        if self.use_dag:
            components.append(-dag_id if dag_id is not None else _UNKNOWN_DAG)
        components.append(-tie_id)
        return tuple(components)

    def _neighbor_key(self, runtime, q):
        return self._key(
            density=runtime.cached(q, "density"),
            is_head=runtime.cached(q, "head") == q,
            dag_id=runtime.cached(q, "dag_id") if self.use_dag else None,
            tie_id=runtime.cached(q, "tie_id", q),
        )


class OracleNamingProtocol(DagNamingProtocol):
    """N1 over the whole cache: every cached name first, then the
    colliders, then their tie identifiers."""

    def _n1(self, runtime, rng):
        current = runtime.shared.get("dag_id")
        cached_names = runtime.cached_all("dag_id")
        cached_ids = [value for value in cached_names.values()
                      if value is not None]
        if self.variant == "randomized":
            runtime.shared["dag_id"] = new_id(current, cached_ids,
                                              self.namespace, rng)
            return
        if current not in self.namespace:
            runtime.shared["dag_id"] = self.namespace.sample(
                rng, exclude=cached_ids)
            return
        colliders = [q for q, value in cached_names.items()
                     if value == current]
        if any(runtime.cached(q, "tie_id", q) > runtime.tie_id
               for q in colliders):
            runtime.shared["dag_id"] = self.namespace.sample(
                rng, exclude=cached_ids)


def oracle_clustering(protocol):
    """The oracle twin of a :class:`DensityClusteringProtocol`."""
    return OracleClusteringProtocol(order=protocol.order,
                                    fusion=protocol.fusion,
                                    use_dag=protocol.use_dag)


def oracle_naming(protocol):
    """The oracle twin of a :class:`DagNamingProtocol`."""
    return OracleNamingProtocol(protocol.namespace, variant=protocol.variant)


def oracle_stack(stack):
    """``stack`` with every clustering and naming layer replaced by its
    oracle twin (the other layers keep no state and are shared)."""
    twins = []
    for layer in stack.layers:
        if isinstance(layer, DensityClusteringProtocol):
            layer = oracle_clustering(layer)
        elif isinstance(layer, DagNamingProtocol):
            layer = oracle_naming(layer)
        twins.append(layer)
    return ProtocolStack(twins)


# ----------------------------------------------------------------------
# legitimacy, from the graph on every call
# ----------------------------------------------------------------------

def neighborhood_accurate(simulator):
    graph = simulator.graph
    return all(simulator.runtime(node).known_neighbors()
               == graph.neighbors(node) for node in graph)


def two_hop_accurate(simulator):
    graph = simulator.graph
    return all(simulator.runtime(node).two_hop_view()
               == graph.k_neighborhood(node, 2) for node in graph)


def naming_legitimate(simulator):
    ids = simulator.shared_map("dag_id")
    if any(value is None for value in ids.values()):
        return False
    return is_locally_unique(simulator.graph, ids)


def densities_legitimate(simulator):
    truth = all_densities(simulator.graph, exact=True)
    shared = simulator.shared_map("density")
    return all(shared[node] == truth[node] for node in simulator.graph)


def clustering_legitimate(simulator, order="basic", fusion=False,
                          use_dag=True):
    tie_ids = {node: simulator.runtime(node).tie_id
               for node in simulator.graph}
    dag_ids = simulator.shared_map("dag_id") if use_dag else None
    if use_dag and any(value is None for value in dag_ids.values()):
        return False
    previous = None
    if order == "incumbent":
        shared_heads = simulator.shared_map("head")
        previous = {node for node, head in shared_heads.items()
                    if head == node}
    oracle = compute_clustering(simulator.graph, tie_ids=tie_ids,
                                dag_ids=dag_ids, order=order, fusion=fusion,
                                previous=previous)
    parents = simulator.shared_map("parent")
    heads = simulator.shared_map("head")
    return all(parents[node] == oracle.parent(node)
               and heads[node] == oracle.head(node)
               for node in simulator.graph)


def stack_legitimate(simulator, order="basic", fusion=False, use_dag=True):
    return (neighborhood_accurate(simulator)
            and two_hop_accurate(simulator)
            and (not use_dag or naming_legitimate(simulator))
            and densities_legitimate(simulator)
            and clustering_legitimate(simulator, order=order, fusion=fusion,
                                      use_dag=use_dag))
