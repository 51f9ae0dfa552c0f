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

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


class MobilityModel:
    """Owns an ``(n, 2)`` position array inside a ``side x side`` square."""

    def __init__(self, count, side=1.0, rng=None):
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        if side <= 0:
            raise ConfigurationError(f"side must be positive, got {side}")
        self.count = int(count)
        self.side = float(side)
        self.rng = as_rng(rng)
        self.positions = self.rng.uniform(0.0, self.side, size=(self.count, 2))

    def advance(self, dt):
        """Advance all nodes by ``dt`` seconds; returns the new positions."""
        raise NotImplementedError

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
