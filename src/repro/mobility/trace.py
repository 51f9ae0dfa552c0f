"""Mobility traces: positions over time and per-window topologies.

:func:`topology_at` builds one snapshot from scratch; :func:`window_stream`
maintains one :class:`~repro.graph.dynamic.DynamicTopology` across a
whole sequence, so each window costs only its edge delta, and its
topologies equal :func:`topology_at` on each snapshot.
"""

from dataclasses import dataclass

import numpy as np

from repro.graph.dynamic import DynamicTopology, WindowUpdate
from repro.graph.generators import Topology
from repro.graph.geometry import unit_disk_graph
from repro.util.errors import ConfigurationError


def topology_at(positions, radius, ids=None):
    """Unit-disk :class:`~repro.graph.generators.Topology` for a position
    snapshot.  ``ids`` keeps node identifiers stable across windows."""
    positions = np.asarray(positions, dtype=float)
    node_ids = list(range(len(positions))) if ids is None else list(ids)
    graph, positions_by_id = unit_disk_graph(positions, radius,
                                             node_ids=node_ids)
    return Topology(graph, positions=positions_by_id, radius=radius)


def window_stream(position_snapshots, radius, ids=None,
                  track_densities=True):
    """Yield one :class:`~repro.graph.dynamic.WindowUpdate` per snapshot.

    The first update carries the freshly built topology with
    ``delta=None`` (an engine re-seeds on it), every later update the
    exact edge delta from the previous window.  Every yielded topology
    wraps the *same* live graph, rebased onto each snapshot's exact edge
    set, so consume each update before advancing the generator (as the
    experiment loops do).  ``track_densities=False`` skips the triangle
    counts and the exact densities for consumers that never read them
    (the baseline engines); updates then carry ``densities=None`` /
    ``density_changed=None``.
    """
    dynamic = None
    for positions in position_snapshots:
        if dynamic is None:
            dynamic = DynamicTopology(positions, radius, ids=ids,
                                      track_densities=track_densities)
            yield WindowUpdate(topology=dynamic.topology, delta=None,
                               density_changed=None,
                               densities=dynamic.densities)
        else:
            yield dynamic.move(positions)


@dataclass(frozen=True)
class TraceFrame:
    """One recorded snapshot of a mobility trace."""

    time: float
    positions: np.ndarray


class Trace:
    """A recorded mobility trace, replayable into topology snapshots."""

    def __init__(self, frames):
        self.frames = list(frames)
        if not self.frames:
            raise ConfigurationError("a trace needs at least one frame")
        times = [frame.time for frame in self.frames]
        if times != sorted(times):
            raise ConfigurationError("trace frames must be time-ordered")

    def __len__(self):
        return len(self.frames)

    def __iter__(self):
        return iter(self.frames)

    def topologies(self, radius):
        """Yield ``(time, Topology)`` per frame, each an independent
        scratch snapshot (:func:`topology_at`)."""
        for frame in self.frames:
            yield frame.time, topology_at(frame.positions, radius)


def record_trace(model, duration, window):
    """Advance ``model`` and record a frame every ``window`` seconds.

    The frame at t=0 (the initial deployment) is included; ``duration`` is
    covered inclusively when it is a multiple of ``window``.
    """
    if duration < 0 or window <= 0:
        raise ConfigurationError(
            f"need duration >= 0 and window > 0, got {duration}, {window}")
    frames = [TraceFrame(time=0.0, positions=model.positions.copy())]
    steps = int(round(duration / window))
    for i in range(1, steps + 1):
        model.advance(window)
        frames.append(TraceFrame(time=i * window,
                                 positions=model.positions.copy()))
    return Trace(frames)
