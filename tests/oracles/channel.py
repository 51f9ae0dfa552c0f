"""Lossy-channel oracles: ``graph.neighbors`` called afresh on every step.

:class:`~repro.runtime.channel.BernoulliLossChannel` and
:class:`~repro.runtime.channel.SlottedContentionChannel` scan neighbor
sets memoized per (graph, CSR snapshot).  These are the scans they must
equal, written the direct way: every step asks the graph for each
node's neighbor set again.  Both models draw their randomness in
neighbor-set iteration order, so equal traces also prove that the
memoized sets iterate exactly as fresh ones do.
"""

from repro.runtime.channel import (
    BernoulliLossChannel,
    SlottedContentionChannel,
)
from repro.util.rng import as_rng


class BernoulliLossOracle(BernoulliLossChannel):
    """Per-(frame, receiver) loss over fresh neighbor sets."""

    def deliver(self, frames, graph, rng):
        rng = as_rng(rng)
        inboxes = {node: [] for node in graph}
        for sender, frame in frames.items():
            for receiver in graph.neighbors(sender):
                if rng.random() >= self.loss:
                    inboxes[receiver].append(frame)
        return inboxes


class SlottedContentionOracle(SlottedContentionChannel):
    """Slotted contention over fresh neighbor sets."""

    def deliver(self, frames, graph, rng):
        rng = as_rng(rng)
        slot_of = {sender: int(rng.integers(self.slots)) for sender in frames}
        inboxes = {node: [] for node in graph}
        for receiver in graph.nodes:
            neighbors = graph.neighbors(receiver)
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
