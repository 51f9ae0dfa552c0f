"""Tests for mobility traces and per-window topologies."""

import numpy as np
import pytest

from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.trace import (
    Trace,
    TraceFrame,
    record_trace,
    topology_at,
    window_stream,
)
from repro.util.errors import ConfigurationError


class TestTopologyAt:
    def test_builds_unit_disk(self):
        positions = [(0.0, 0.0), (0.05, 0.0), (0.9, 0.9)]
        topo = topology_at(positions, radius=0.1)
        assert topo.graph.has_edge(0, 1)
        assert not topo.graph.has_edge(0, 2)

    def test_stable_ids_across_snapshots(self):
        a = topology_at([(0, 0), (1, 1)], radius=0.1, ids=["u", "v"])
        b = topology_at([(0.2, 0), (1, 0.8)], radius=0.1, ids=["u", "v"])
        assert set(a.graph.nodes) == set(b.graph.nodes) == {"u", "v"}


class TestRecordTrace:
    def test_frame_count_and_times(self):
        model = RandomDirectionModel(10, speed_range=(0, 0.01), rng=1)
        trace = record_trace(model, duration=10.0, window=2.0)
        assert len(trace) == 6  # t = 0, 2, 4, 6, 8, 10
        assert [f.time for f in trace] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_frames_are_position_copies(self):
        model = RandomDirectionModel(5, speed_range=(0.01, 0.02), rng=2)
        trace = record_trace(model, duration=4.0, window=2.0)
        assert not np.allclose(trace.frames[0].positions,
                               trace.frames[-1].positions)

    def test_topologies_iterate_with_times(self):
        model = RandomDirectionModel(5, speed_range=(0, 0.01), rng=3)
        trace = record_trace(model, duration=4.0, window=2.0)
        snapshots = list(trace.topologies(radius=0.3))
        assert len(snapshots) == 3
        time, topo = snapshots[0]
        assert time == 0.0
        assert len(topo.graph) == 5

    def test_rejects_bad_window(self):
        model = RandomDirectionModel(5, speed_range=(0, 0.01), rng=4)
        with pytest.raises(ConfigurationError):
            record_trace(model, duration=4.0, window=0.0)

    def test_delta_replay_matches_rebuild(self):
        model = RandomDirectionModel(25, speed_range=(0.005, 0.02), rng=5)
        trace = record_trace(model, duration=10.0, window=2.0)
        rebuilt = list(trace.topologies(radius=0.25))
        replayed = window_stream((frame.positions for frame in trace),
                                 radius=0.25)
        windows = 0
        for (time, a), frame, update in zip(rebuilt, trace, replayed):
            b = update.topology
            assert time == frame.time
            assert a.graph.nodes == b.graph.nodes
            assert {frozenset(e) for e in a.graph.edges} == \
                {frozenset(e) for e in b.graph.edges}
            assert a.positions == b.positions
            windows += 1
        assert windows == len(trace) == 6


class TestTrace:
    def test_requires_frames(self):
        with pytest.raises(ConfigurationError):
            Trace([])

    def test_requires_time_order(self):
        frames = [TraceFrame(time=1.0, positions=np.zeros((2, 2))),
                  TraceFrame(time=0.0, positions=np.zeros((2, 2)))]
        with pytest.raises(ConfigurationError):
            Trace(frames)

    def test_iteration(self):
        frames = [TraceFrame(time=0.0, positions=np.zeros((2, 2)))]
        assert [f.time for f in Trace(frames)] == [0.0]
