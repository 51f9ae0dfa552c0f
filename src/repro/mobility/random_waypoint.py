"""Random-waypoint mobility.

Each node picks a destination uniformly in the square and a speed
uniformly from the speed range, travels straight to it, optionally pauses,
then repeats.  Provided as the second classical model so the mobility
experiment can be cross-checked under a different motion law (the paper
does not pin its model down; DESIGN.md, deviation 5).
"""

import numpy as np

from repro.mobility.base import MobilityModel
from repro.util.errors import ConfigurationError


class RandomWaypointModel(MobilityModel):
    """Uniform waypoints, uniform per-leg speeds, optional pause times."""

    def __init__(self, count, speed_range, side=1.0, pause=0.0, rng=None):
        super().__init__(count, side=side, rng=rng)
        low, high = self._speed_range(speed_range)
        if not pause >= 0:
            raise ConfigurationError(f"pause must be non-negative, got {pause}")
        self.speed_range = (low, high)
        self.pause = float(pause)
        self._targets = self.rng.uniform(0.0, self.side, size=(self.count, 2))
        self._speeds = self.rng.uniform(low, high, size=self.count)
        self._pausing = np.zeros(self.count)

    def advance(self, dt):
        remaining = np.full(self.count, self._duration(dt))
        # Nodes consume pause time first, then move leg by leg: one pass
        # per leg, so a long advance takes as many passes as it has legs.
        while np.any(remaining > 1e-12):
            before = remaining.copy()
            self._consume_pause(remaining)
            self._move_legs(remaining)
            if np.array_equal(remaining, before):
                raise ConfigurationError(
                    f"dt={dt} is too large to advance: every leg is shorter "
                    f"than the rounding step of the time left")
        return self.positions

    def _consume_pause(self, remaining):
        pausing = (self._pausing > 0) & (remaining > 0)
        if np.any(pausing):
            used = np.minimum(self._pausing[pausing], remaining[pausing])
            self._pausing[pausing] -= used
            remaining[pausing] -= used

    def _move_legs(self, remaining):
        moving = (self._pausing <= 0) & (remaining > 1e-12)
        if not np.any(moving):
            return
        deltas = self._targets[moving] - self.positions[moving]
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        speeds = self._speeds[moving]
        with np.errstate(divide="ignore", invalid="ignore"):
            time_to_target = np.where(speeds > 0, distances / speeds, np.inf)
        used = np.minimum(time_to_target, remaining[moving])
        frac = np.where(distances > 0, (used * speeds) / np.maximum(distances, 1e-30), 1.0)
        frac = np.minimum(frac, 1.0)
        self.positions[moving] += deltas * frac[:, None]
        arrived_local = used >= time_to_target - 1e-12
        remaining_indices = np.flatnonzero(moving)
        remaining[remaining_indices] -= used
        arrived = remaining_indices[arrived_local]
        # Zero-speed nodes never arrive; their remaining time is consumed.
        stuck = remaining_indices[np.isinf(time_to_target)]
        remaining[stuck] = 0.0
        if arrived.size:
            self._targets[arrived] = self.rng.uniform(
                0.0, self.side, size=(arrived.size, 2))
            low, high = self.speed_range
            self._speeds[arrived] = self.rng.uniform(low, high,
                                                     size=arrived.size)
            self._pausing[arrived] = self.pause
