"""Random-direction mobility with border reflection.

Each node draws a heading uniformly on the circle and a speed uniformly
from ``[min_speed, max_speed]``; it travels in a straight line, reflecting
off the square's borders, and re-draws heading and speed after an
exponentially distributed leg duration.  This matches the paper's loose
"nodes move randomly at a randomly chosen speed" while avoiding the
center-bias pathology of random waypoint.

An advance runs one sub-step per expiring leg: every coordinate moves
by its velocity, and the border reflection runs only in the sub-steps
that leave a coordinate outside ``[+0, side]`` (a few percent of them
at the paper's speeds); in the others it would change no bit.
"""

import numpy as np

from repro.mobility.base import MobilityModel
from repro.util.errors import ConfigurationError


class RandomDirectionModel(MobilityModel):
    """Straight legs, reflective borders, exponential leg durations."""

    def __init__(self, count, speed_range, side=1.0, mean_leg_duration=30.0,
                 rng=None):
        super().__init__(count, side=side, rng=rng)
        low, high = self._speed_range(speed_range)
        if not mean_leg_duration > 0:
            raise ConfigurationError(
                f"mean_leg_duration must be positive, got {mean_leg_duration}")
        self.speed_range = (low, high)
        self.mean_leg_duration = float(mean_leg_duration)
        self._speeds = self.rng.uniform(low, high, size=self.count)
        headings = self.rng.uniform(0.0, 2.0 * np.pi, size=self.count)
        self._velocities = self._speeds[:, None] * np.column_stack(
            (np.cos(headings), np.sin(headings)))
        self._leg_remaining = self.rng.exponential(
            self.mean_leg_duration, size=self.count)

    def advance(self, dt):
        remaining = self._duration(dt)
        if remaining <= 1e-12:
            return self.positions
        # A fresh position array per call (callers may keep the previous
        # one); each sub-step then updates it, the velocities and the
        # reflection mask in place.
        positions = self.positions.copy()
        velocities = self._velocities
        legs = self._leg_remaining
        side = self.side
        step = np.empty_like(positions)
        flipped = np.empty(positions.shape, dtype=bool)
        outside = np.empty(positions.shape, dtype=bool)
        # Process in sub-steps so a leg change mid-interval is honored for
        # the remainder of the interval.
        while remaining > 1e-12:
            sub = min(remaining, float(legs.min()))
            sub = max(sub, 1e-9)
            np.multiply(velocities, sub, out=step)
            np.add(positions, step, out=positions)
            # Reflection changes nothing while every coordinate lies in
            # [+0, side]; most sub-steps leave none outside.
            np.signbit(positions, out=outside)
            outside |= positions > side
            if outside.any():
                self._reflect(positions, flipped)
                np.negative(velocities, out=velocities, where=flipped)
            legs -= sub
            expired = np.flatnonzero(legs <= 1e-12)
            if expired.size:
                self._redraw(expired)
            remaining -= sub
        self.positions = positions
        return positions

    def _redraw(self, rows):
        count = rows.size
        low, high = self.speed_range
        speeds = self.rng.uniform(low, high, size=count)
        headings = self.rng.uniform(0.0, 2.0 * np.pi, size=count)
        self._speeds[rows] = speeds
        self._velocities[rows] = speeds[:, None] * np.column_stack(
            (np.cos(headings), np.sin(headings)))
        self._leg_remaining[rows] = self.rng.exponential(
            self.mean_leg_duration, size=count)
