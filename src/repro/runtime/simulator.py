"""The synchronous step simulator.

Section 5 defines the time unit: *a step is a bounded time Δ(τ) during
which each node is able to locally broadcast one frame and receive all
packets sent by its 1-neighbors*.  One call to :meth:`StepSimulator.step`
is exactly one such Δ(τ):

1. every node assembles a frame from its shared variables
   (``protocol.payload``);
2. the channel delivers frames to graph neighbors (possibly with loss --
   with a lossy channel a "step" is a single transmission opportunity and
   convergence takes proportionally longer, as the τ analysis predicts);
3. every node ingests its inbox into its caches and expires stale entries;
4. every node executes its guarded-command program (round-robin, Section 4).

A step costs one unit of work per frame plus cheap reads per delivery:
each payload is snapshotted once, into one immutable
:class:`~repro.runtime.node.CacheEntry` that all of the frame's
receivers cache, and the frame is sized once (the byte count of its
variable names is memoized).  In step 4 a program calls each action
whose guard is the constant ``always`` directly; the clustering layer's
R2 reads float-led neighbor keys memoized on the entries, and the
polite N1 scans a node's entries once.

The simulator never lets protocol code read the true graph: all knowledge
flows through frames, which is what makes the self-stabilization
experiments meaningful.  The graph may be replaced between steps (mobility,
link failures); protocols adapt through cache expiry.
"""

from repro.metrics.overhead import TrafficStats
from repro.runtime.channel import IdealChannel
from repro.runtime.daemon import SynchronousDaemon
from repro.runtime.frames import Frame
from repro.runtime.node import DEFAULT_CACHE_TIMEOUT, CacheEntry, NodeRuntime
from repro.util.errors import ConfigurationError, ConvergenceError
from repro.util.rng import as_rng


class StepSimulator:
    """Drive one protocol stack over a (possibly changing) topology."""

    def __init__(self, topology, protocol, channel=None, rng=None,
                 cache_timeout=DEFAULT_CACHE_TIMEOUT, daemon=None):
        self.topology = topology
        self.protocol = protocol
        self.channel = channel if channel is not None else IdealChannel()
        self.daemon = daemon if daemon is not None else SynchronousDaemon()
        self.rng = as_rng(rng)
        self.now = 0
        self.traffic = TrafficStats()
        self._cache_timeout = cache_timeout
        self._activation_order = None
        self.runtimes = {}
        for node in topology.graph:
            runtime = NodeRuntime(node_id=node, tie_id=topology.ids[node],
                                  cache_timeout=cache_timeout)
            protocol.initialize(runtime, self.rng)
            self.runtimes[node] = runtime
        self._program = protocol.program()

    # ------------------------------------------------------------------
    # topology access
    # ------------------------------------------------------------------

    @property
    def graph(self):
        return self.topology.graph

    def replace_topology(self, topology):
        """Swap in a new topology (mobility).  Node set must be unchanged;
        runtimes -- including caches, which will expire naturally -- are
        preserved, exactly as a real node's memory survives its movement."""
        if set(topology.graph.nodes) != set(self.runtimes):
            raise ConfigurationError(
                "replace_topology requires the same node set; use "
                "set_topology for churn")
        self.set_topology(topology)

    def set_topology(self, topology):
        """Swap in a new topology whose node set may differ (churn).

        Departed nodes vanish with their state (a powered-off radio);
        their former neighbors notice through cache expiry.  Arrivals boot
        with the protocol's legitimate initial state -- stabilization
        tests that want adversarial arrivals corrupt them afterwards.
        """
        new_nodes = set(topology.graph.nodes)
        old_nodes = set(self.runtimes)
        for node in old_nodes - new_nodes:
            del self.runtimes[node]
        self.topology = topology
        for node in new_nodes - old_nodes:
            runtime = NodeRuntime(node_id=node, tie_id=topology.ids[node],
                                  cache_timeout=self._cache_timeout)
            self.protocol.initialize(runtime, self.rng)
            self.runtimes[node] = runtime
        for node in new_nodes & old_nodes:
            self.runtimes[node].tie_id = topology.ids[node]
        # Membership or tie identifiers may have changed; the next step
        # recomputes the activation order.
        self._activation_order = None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self):
        """Advance one Δ(τ) step; return ``{node: [fired command names]}``."""
        self.now += 1
        now = self.now
        graph = self.graph
        runtimes = self.runtimes
        payload = self.protocol.payload
        frames = {}
        entries = {}
        for node in graph:
            # One snapshot per frame: the payload as broadcast, before any
            # program runs, shared by every receiver's cache.
            snapshot = dict(payload(runtimes[node]))
            frames[node] = Frame(sender=node, payload=snapshot)
            entries[node] = CacheEntry(payload=snapshot, refreshed_at=now)
        inboxes = self.channel.deliver(frames, graph, self.rng)
        self.traffic.record_step(frames, inboxes)
        for node in graph:
            runtime = runtimes[node]
            caches = runtime.caches
            for frame in inboxes.get(node, ()):
                sender = frame.sender
                if sender != node:  # a node never caches itself
                    caches[sender] = entries[sender]
            runtime.expire_caches(now)
        fired = {}
        activated = self.daemon.select(self.runtimes, self.rng)
        order = self._activation_order
        if order is None:
            # Node membership and tie identifiers change only through
            # set_topology / replace_topology (which invalidate this), so
            # the per-step re-sort collapses to one cached list.
            order = sorted(self.runtimes,
                           key=lambda n: self.runtimes[n].tie_id)
            self._activation_order = order
        for node in order:
            if node in activated:
                fired[node] = self._program.execute(self.runtimes[node],
                                                    self.rng)
            else:
                fired[node] = []
        return fired

    def run(self, steps):
        """Run a fixed number of steps."""
        if steps < 0:
            raise ConfigurationError(f"steps must be non-negative, got {steps}")
        for _ in range(steps):
            self.step()
        return self.now

    def run_until(self, predicate, max_steps, settle=1):
        """Step until ``predicate(self)`` holds for ``settle`` consecutive
        steps; return the step count at which it first held.

        Raises :class:`ConvergenceError` if the budget is exhausted, and
        :class:`ConfigurationError` if ``max_steps`` or ``settle`` is below
        1.  The ``settle`` window distinguishes transient truth from
        stabilization (closure is checked separately by the monitor).
        """
        if max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
        if settle < 1:
            raise ConfigurationError(f"settle must be >= 1, got {settle}")
        first_true = None
        consecutive = 0
        for _ in range(max_steps):
            self.step()
            if predicate(self):
                consecutive += 1
                if first_true is None:
                    first_true = self.now
                if consecutive >= settle:
                    return first_true
            else:
                consecutive = 0
                first_true = None
        raise ConvergenceError(
            f"predicate not stable within {max_steps} steps",
            iterations=max_steps)

    # ------------------------------------------------------------------
    # inspection and fault injection
    # ------------------------------------------------------------------

    def shared_map(self, name):
        """``{node: shared[name]}`` over all nodes (None when unset)."""
        return {node: runtime.shared.get(name)
                for node, runtime in self.runtimes.items()}

    def runtime(self, node):
        """The :class:`NodeRuntime` of ``node``."""
        return self.runtimes[node]

    def corrupt(self, mutator, nodes=None):
        """Apply a transient fault: ``mutator(runtime, rng)`` on each node.

        ``nodes`` restricts the fault's scope (default: every node).  This
        models the arbitrary-initial-state premise of self-stabilization.
        """
        targets = self.runtimes if nodes is None else nodes
        for node in targets:
            mutator(self.runtimes[node], self.rng)
