"""Radio channel models.

Section 4's only assumption about the MAC layer is: *there exists a
constant τ > 0 such that the probability of a frame transmission without
collision is at least τ*, memoryless across transmissions.  Three models
realize (or idealize) that assumption:

* :class:`IdealChannel` -- every frame reaches every neighbor (``τ = 1``);
  this is the regime of Section 5's step counting, where one step is long
  enough for every node to deliver one frame to all neighbors.
* :class:`BernoulliLossChannel` -- each (frame, receiver) pair is lost
  independently with a fixed probability; the simplest memoryless model.
* :class:`SlottedContentionChannel` -- each sender picks one of ``k``
  slots uniformly at random; a receiver hears a neighbor's frame iff no
  *other* of its neighbors picked the same slot and the receiver itself
  was not transmitting in it (half-duplex).  This derives the τ bound
  instead of postulating it: see :meth:`tau_lower_bound`.
"""

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


class Channel:
    """Interface: map per-sender frames to per-receiver inboxes."""

    def deliver(self, frames, graph, rng):
        """``frames`` maps sender -> Frame; returns receiver -> [Frame].

        Receivers are exactly the senders' graph neighbors, filtered by the
        model's loss process.  Every node present in the graph appears in
        the result (possibly with an empty inbox).
        """
        raise NotImplementedError


class IdealChannel(Channel):
    """Lossless broadcast: τ = 1.

    The per-step delivery scan rides the graph's CSR snapshot when the
    senders are exactly the graph's nodes in row order (the shape every
    :meth:`StepSimulator.step` produces): a receiver's inbox is its CSR
    row read off the shared ``indices`` array, which lists neighbor rows
    ascending.  A partial sender set takes a scan over the senders'
    neighbors.
    """

    def __init__(self):
        self._scan_cache = None

    def __getstate__(self):
        # The cache holds a frozen CSR snapshot; drop it so pickled
        # channels (experiment task payloads) stay lean and rebuildable.
        return {"_scan_cache": None}

    def deliver(self, frames, graph, rng):
        csr = graph.to_csr()
        if tuple(frames) == csr.ids:
            cached = self._scan_cache
            if cached is None or cached[0] is not csr:
                # Memoized per snapshot: steps over an unchanged graph
                # (the common regime between mobility windows) reuse the
                # flattened row lists.
                cached = (csr, csr.ids, csr.indptr.tolist(),
                          csr.indices.tolist())
                self._scan_cache = cached
            _csr, ids, bounds, neighbor_rows = cached
            frame_list = list(frames.values())
            return {ids[row]: [frame_list[j]
                               for j in neighbor_rows[bounds[row]:
                                                      bounds[row + 1]]]
                    for row in range(len(ids))}
        inboxes = {node: [] for node in graph}
        for sender, frame in frames.items():
            for receiver in graph.neighbors(sender):
                inboxes[receiver].append(frame)
        return inboxes

    def __repr__(self):
        return "IdealChannel()"


class _NeighborScanChannel(Channel):
    """Base of the lossy models: they scan ``graph.neighbors`` sets.

    Their RNG draws follow neighbor-set iteration order, so the scan
    must keep iterating the sets ``graph.neighbors`` returns.  Building
    those sets costs a few microseconds a node, so they are memoized per
    (graph, CSR snapshot) -- keyed by identity, like
    :class:`IdealChannel`'s scan cache -- and every step over an
    unchanged graph iterates the very same set objects.  A rebase
    replaces the snapshot, and the next step rebuilds the memo.
    """

    _neighbor_memo = None

    def __getstate__(self):
        # The memo holds the graph and its snapshot; pickled channels
        # (experiment task payloads) carry only their parameters.
        state = self.__dict__.copy()
        state.pop("_neighbor_memo", None)
        return state

    def _neighbor_sets(self, graph):
        """``{node: graph.neighbors(node)}`` in graph order."""
        csr = graph.to_csr()
        memo = self._neighbor_memo
        if memo is None or memo[0] is not graph or memo[1] is not csr:
            memo = (graph, csr,
                    {node: graph.neighbors(node) for node in graph})
            self._neighbor_memo = memo
        return memo[2]


class BernoulliLossChannel(_NeighborScanChannel):
    """Independent per-(frame, receiver) loss with probability ``loss``."""

    def __init__(self, loss):
        if not 0.0 <= loss < 1.0:
            raise ConfigurationError(
                f"loss probability must be in [0, 1), got {loss}")
        self.loss = float(loss)

    @property
    def tau(self):
        """Per-transmission success probability lower bound."""
        return 1.0 - self.loss

    def deliver(self, frames, graph, rng):
        # Each (frame, receiver) pair consumes one RNG draw in
        # neighbor-set iteration order, so reordering the scan (e.g.
        # onto sorted CSR rows) would reshuffle every lossy trace.
        rng = as_rng(rng)
        neighbor_sets = self._neighbor_sets(graph)
        inboxes = {node: [] for node in neighbor_sets}
        for sender, frame in frames.items():
            receivers = neighbor_sets.get(sender)
            if receivers is None:
                receivers = graph.neighbors(sender)  # raises TopologyError
            for receiver in receivers:
                if rng.random() >= self.loss:
                    inboxes[receiver].append(frame)
        return inboxes

    def __repr__(self):
        return f"BernoulliLossChannel(loss={self.loss})"


class SlottedContentionChannel(_NeighborScanChannel):
    """Slotted random-access MAC with ``slots`` slots per step.

    Every transmitting node picks one slot uniformly.  Receiver ``r`` hears
    neighbor ``s`` iff no other neighbor of ``r`` chose ``s``'s slot and
    ``r`` itself did not transmit in that slot.
    """

    def __init__(self, slots):
        if slots < 2:
            raise ConfigurationError(
                f"need at least 2 slots for any successful contention, "
                f"got {slots}")
        self.slots = int(slots)

    def tau_lower_bound(self, delta):
        """A constant τ valid for any topology of maximum degree ``delta``.

        Receiver ``r`` has at most ``delta - 1`` neighbors other than the
        sender, each colliding with the sender's slot with probability
        ``1/slots``, and ``r`` itself occupies one slot.  Hence the frame
        is heard with probability at least
        ``((slots - 1) / slots) ** delta`` -- a positive constant, which is
        exactly the hypothesis of Section 4.
        """
        if delta < 0:
            raise ConfigurationError(f"delta must be non-negative, got {delta}")
        return ((self.slots - 1) / self.slots) ** delta

    def deliver(self, frames, graph, rng):
        rng = as_rng(rng)
        slot_of = {sender: int(rng.integers(self.slots)) for sender in frames}
        neighbor_sets = self._neighbor_sets(graph)
        inboxes = {node: [] for node in neighbor_sets}
        for receiver, neighbors in neighbor_sets.items():
            transmitting = [s for s in neighbors if s in slot_of]
            slot_counts = {}
            for s in transmitting:
                slot_counts[slot_of[s]] = slot_counts.get(slot_of[s], 0) + 1
            own_slot = slot_of.get(receiver)
            for s in transmitting:
                slot = slot_of[s]
                if slot_counts[slot] == 1 and slot != own_slot:
                    inboxes[receiver].append(frames[s])
        return inboxes

    def __repr__(self):
        return f"SlottedContentionChannel(slots={self.slots})"
