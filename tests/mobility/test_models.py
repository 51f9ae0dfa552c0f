"""Tests for the mobility models."""

import numpy as np
import pytest

from repro.experiments.mobility import SPEED_REGIMES, speed_range_in_sides
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.random_waypoint import RandomWaypointModel
from repro.util.errors import ConfigurationError
from tests.oracles import mobility as oracle


ALL_MODELS = [
    lambda **kw: RandomDirectionModel(speed_range=(0.0, 0.05), **kw),
    lambda **kw: RandomWaypointModel(speed_range=(0.0, 0.05), **kw),
]


@pytest.mark.parametrize("factory", ALL_MODELS)
class TestCommonBehaviour:
    def test_initial_positions_inside_square(self, factory):
        model = factory(count=50, rng=1)
        assert np.all(model.positions >= 0.0)
        assert np.all(model.positions <= 1.0)

    def test_positions_stay_inside_after_motion(self, factory):
        model = factory(count=50, rng=2)
        for _ in range(30):
            model.advance(5.0)
        assert np.all(model.positions >= 0.0)
        assert np.all(model.positions <= 1.0)

    def test_zero_dt_is_noop(self, factory):
        model = factory(count=10, rng=3)
        before = model.positions.copy()
        model.advance(0.0)
        assert np.allclose(model.positions, before)

    def test_negative_dt_rejected(self, factory):
        model = factory(count=10, rng=3)
        with pytest.raises(ConfigurationError):
            model.advance(-1.0)

    def test_motion_actually_happens(self, factory):
        model = factory(count=40, rng=4)
        before = model.positions.copy()
        model.advance(10.0)
        moved = np.hypot(*(model.positions - before).T)
        assert np.mean(moved) > 0.0

    def test_same_seed_same_trajectory(self, factory):
        a = factory(count=20, rng=9)
        b = factory(count=20, rng=9)
        a.advance(7.0)
        b.advance(7.0)
        assert np.allclose(a.positions, b.positions)

    def test_displacement_bounded_by_max_speed(self, factory):
        model = factory(count=30, rng=5)
        before = model.positions.copy()
        model.advance(2.0)
        moved = np.hypot(*(model.positions - before).T)
        # Max speed 0.05/s for 2 s = 0.1 (reflection only shortens paths).
        assert np.all(moved <= 0.1 + 1e-9)

    def test_rejects_bad_speed_range(self, factory):
        with pytest.raises(ConfigurationError):
            RandomDirectionModel(10, speed_range=(0.5, 0.1))
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(10, speed_range=(-0.1, 0.1))

    def test_rejects_empty_population(self, factory):
        with pytest.raises(ConfigurationError):
            factory(count=0)


class TestRandomDirection:
    def test_zero_speed_nodes_never_move(self):
        model = RandomDirectionModel(10, speed_range=(0.0, 0.0), rng=1)
        before = model.positions.copy()
        model.advance(100.0)
        assert np.allclose(model.positions, before)

    def test_leg_redraws_change_direction(self):
        model = RandomDirectionModel(1, speed_range=(0.02, 0.02),
                                     mean_leg_duration=1.0, rng=7)
        v0 = model._velocities.copy()
        model.advance(50.0)  # ~50 leg changes
        assert not np.allclose(model._velocities, v0)

    def test_rejects_bad_leg_duration(self):
        with pytest.raises(ConfigurationError):
            RandomDirectionModel(5, speed_range=(0, 0.1),
                                 mean_leg_duration=0.0)


class TestRandomWaypoint:
    def test_pause_consumes_time(self):
        model = RandomWaypointModel(1, speed_range=(10.0, 10.0), pause=1000.0,
                                    rng=2)
        # Reach the first waypoint almost instantly, then pause ~forever.
        model.advance(5.0)
        paused_at = model.positions.copy()
        model.advance(5.0)
        assert np.allclose(model.positions, paused_at)

    def test_arrival_redraws_target(self):
        model = RandomWaypointModel(1, speed_range=(5.0, 5.0), rng=3)
        first_target = model._targets.copy()
        model.advance(10.0)  # plenty of time to arrive several times
        assert not np.allclose(model._targets, first_target)

    def test_rejects_negative_pause(self):
        with pytest.raises(ConfigurationError):
            RandomWaypointModel(5, speed_range=(0, 0.1), pause=-1.0)


class TestRandomDirectionMatchesOracle:
    """The in-place sub-step loop equals the fresh-array oracle bit for
    bit: positions, velocities, speeds, leg timers and the RNG stream."""

    @staticmethod
    def pair(regime, count=300, seed=17):
        speeds = speed_range_in_sides(SPEED_REGIMES[regime])
        return (RandomDirectionModel(count, speeds, rng=seed),
                RandomDirectionModel(count, speeds, rng=seed))

    @staticmethod
    def assert_same_state(fast, slow):
        # Bytes, not values: -0.0 == 0.0 would hide a sign-bit drift.
        for name in ("positions", "_velocities", "_speeds", "_leg_remaining"):
            assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes()

    @pytest.mark.parametrize("regime", sorted(SPEED_REGIMES))
    def test_windows_match(self, regime):
        fast, slow = self.pair(regime)
        for _ in range(60):
            fast.advance(2.0)
            oracle.advance(slow, 2.0)
            self.assert_same_state(fast, slow)
        assert fast.rng.random() == slow.rng.random()

    def test_zero_dt(self):
        fast, slow = self.pair("vehicular", count=20)
        before = fast.positions
        assert fast.advance(0.0) is before
        oracle.advance(slow, 0.0)
        self.assert_same_state(fast, slow)
        assert fast.rng.random() == slow.rng.random()

    def test_leg_expiring_at_the_window_boundary(self):
        fast, slow = self.pair("pedestrian", count=20)
        for model in (fast, slow):
            model._leg_remaining[[3, 11]] = 2.0
        fast.advance(2.0)
        oracle.advance(slow, 2.0)
        self.assert_same_state(fast, slow)
        assert fast._leg_remaining[3] != 0.0  # redrawn at the boundary
        for _ in range(5):
            fast.advance(0.5)
            oracle.advance(slow, 0.5)
            self.assert_same_state(fast, slow)
        assert fast.rng.random() == slow.rng.random()

    def test_far_and_negative_zero_coordinates(self):
        fast, slow = self.pair("vehicular", count=6)
        for model in (fast, slow):
            model.positions[0] = (-0.0, 0.0)
            model.positions[1] = (0.999, 1.0)
            model._velocities[2] = (0.9, -0.7)  # several folds per window
        for _ in range(8):
            fast.advance(2.0)
            oracle.advance(slow, 2.0)
            self.assert_same_state(fast, slow)

    def test_previous_position_array_is_left_alone(self):
        model, _ = self.pair("vehicular", count=20)
        before = model.positions
        snapshot = before.copy()
        model.advance(2.0)
        assert model.positions is not before
        assert np.array_equal(before, snapshot)
