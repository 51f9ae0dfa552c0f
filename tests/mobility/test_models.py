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


NON_FINITE = [float("inf"), float("-inf"), float("nan")]
MODEL_CLASSES = [RandomDirectionModel, RandomWaypointModel]


class TestNonFiniteAndLongInputs:
    """Every non-finite time, speed bound or side is a configuration
    error, so no advance can loop forever or return unmoved; a valid
    advance completes however many legs it spans."""

    @pytest.mark.parametrize("factory", ALL_MODELS,
                             ids=["direction", "waypoint"])
    @pytest.mark.parametrize("dt", NON_FINITE)
    def test_non_finite_dt_is_rejected(self, factory, dt):
        model = factory(count=5, rng=1)
        with pytest.raises(ConfigurationError, match="dt must be finite"):
            model.advance(dt)

    @pytest.mark.parametrize("cls", MODEL_CLASSES)
    @pytest.mark.parametrize("speed_range", [(0.1, float("nan")),
                                             (float("nan"), 1.0),
                                             (0.1, float("inf")),
                                             (float("-inf"), 0.1)])
    def test_non_finite_speed_bounds_are_rejected(self, cls, speed_range):
        with pytest.raises(ConfigurationError, match="speed_range"):
            cls(10, speed_range, rng=1)

    @pytest.mark.parametrize("cls", MODEL_CLASSES)
    @pytest.mark.parametrize("side", NON_FINITE)
    def test_non_finite_side_is_rejected(self, cls, side):
        with pytest.raises(ConfigurationError, match="side"):
            cls(10, (0.1, 0.2), side=side, rng=1)

    def test_nan_leg_duration_is_rejected(self):
        with pytest.raises(ConfigurationError, match="mean_leg_duration"):
            RandomDirectionModel(10, (0.1, 0.2), mean_leg_duration=float("nan"))

    def test_nan_pause_is_rejected(self):
        with pytest.raises(ConfigurationError, match="pause"):
            RandomWaypointModel(10, (0.1, 0.2), pause=float("nan"))

    def test_long_waypoint_advance_completes(self):
        """About 30,000 legs, one pass each: the loop has no pass cap."""
        model = RandomWaypointModel(10, (0.5, 1.0), rng=1)
        positions = model.advance(20000.0)
        assert np.all(positions >= 0.0) and np.all(positions <= 1.0)

    def test_waypoint_advance_past_float_resolution_is_rejected(self):
        """A leg of about a second is below half an ulp of 1e17 s, so no
        pass would reduce the time left: the advance raises at once
        instead of spinning."""
        model = RandomWaypointModel(1, (1.0, 1.0), rng=1)
        with pytest.raises(ConfigurationError, match="dt=1e"):
            model.advance(1e17)

    def test_infinite_legs_and_pauses_stay_valid(self):
        direction = RandomDirectionModel(5, (0.1, 0.2),
                                         mean_leg_duration=float("inf"),
                                         rng=2)
        velocities = direction._velocities.copy()
        direction.advance(50.0)
        assert np.array_equal(np.abs(direction._velocities),
                              np.abs(velocities))  # reflected, never redrawn
        waypoint = RandomWaypointModel(5, (10.0, 10.0), pause=float("inf"),
                                       rng=2)
        waypoint.advance(5.0)
        paused_at = waypoint.positions.copy()
        waypoint.advance(5.0)
        assert np.array_equal(waypoint.positions, paused_at)


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
