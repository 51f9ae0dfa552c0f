"""Mobility model interface.

Section 5's stability experiment moves nodes "randomly at a randomly
chosen speed" for 15 minutes and re-evaluates clusters every 2 seconds.
A mobility model owns the node positions and advances them by ``dt``
seconds; :func:`repro.mobility.trace.topology_at` turns positions back
into unit-disk topologies per evaluation window.

Distances are in *square sides* (the paper's 1x1 square).  The experiment
presets interpret the square as 1 km x 1 km, so a pedestrian 1.6 m/s is
0.0016 sides/s and the R = 0.05..0.1 ranges are 50..100 m.
"""

import math

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


class MobilityModel:
    """Owns an ``(n, 2)`` position array inside a ``side x side`` square."""

    def __init__(self, count, side=1.0, rng=None):
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if not (side > 0 and math.isfinite(side)):
            raise ConfigurationError(
                f"side must be positive and finite, got {side}")
        self.count = int(count)
        self.side = float(side)
        self.rng = as_rng(rng)
        self.positions = self.rng.uniform(0.0, self.side, size=(self.count, 2))

    def advance(self, dt):
        """Advance all nodes by ``dt`` seconds; returns the new positions."""
        raise NotImplementedError

    @staticmethod
    def _speed_range(speed_range):
        """``speed_range`` as a ``(low, high)`` float pair, validated."""
        low, high = speed_range
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ConfigurationError(
                f"speed_range must be finite, got {speed_range}")
        if low < 0 or high < low:
            raise ConfigurationError(
                f"speed_range must satisfy 0 <= min <= max, got {speed_range}")
        return float(low), float(high)

    @staticmethod
    def _duration(dt):
        """``dt`` as a float, validated: a finite, non-negative time."""
        if not math.isfinite(dt):
            raise ConfigurationError(f"dt must be finite, got {dt}")
        if dt < 0:
            raise ConfigurationError(f"dt must be non-negative, got {dt}")
        return float(dt)

    def _reflect(self, positions, flipped):
        """Reflect ``positions`` at the square borders, in place.

        ``flipped`` (a boolean array of the same shape) receives the
        coordinates whose direction of travel must invert.
        """
        span = 2.0 * self.side
        # fmod is exact, so only coordinates outside [+0, span) change
        # under the modulo (the sign bit catches -0.0, which np.mod maps
        # to +0.0): skipping the rest leaves every bit as a full np.mod.
        np.mod(positions, span, out=positions,
               where=np.signbit(positions) | (positions >= span))
        np.greater(positions, self.side, out=flipped)
        np.subtract(span, positions, out=positions, where=flipped)
