"""Property tests: the random-direction advance against its oracle.

``RandomDirectionModel.advance`` moves every coordinate in place and
reflects at the borders only in the sub-steps that leave a coordinate
outside ``[+0, side]``.  ``tests/oracles/mobility.py`` holds the
sub-step loop it must equal: fresh arrays per operation and the fold
and reflection applied to every coordinate of every sub-step.  After
each call, positions, velocities, speeds, leg timers and the RNG state
must be equal bit for bit (bytes, so ``-0.0`` never passes for ``0.0``).

The states start on ``0.0``, ``-0.0`` and ``side``, and move at speeds
that cross a border within one sub-step or wrap past ``2 * side``; a
``-0.0`` coordinate with a ``-0.0`` velocity lands on ``-0.0``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mobility.random_direction import RandomDirectionModel
from tests.oracles import mobility as oracle

STATE = ("positions", "_velocities", "_speeds", "_leg_remaining")


@st.composite
def advance_cases(draw):
    """``(side, seed, points, velocities, legs, calls)``, all plain lists.

    Redrawn legs keep the speeds high: up to three sides a second over
    legs of about a second, so later sub-steps fold as well.
    """
    side = draw(st.sampled_from([1.0, 0.25, 3.0]))
    count = draw(st.integers(1, 6))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, side]),
                           st.floats(0.0, side))
    velocity = st.one_of(st.sampled_from([0.0, -0.0, 2.5 * side,
                                          -4.5 * side]),
                         st.floats(-5.0 * side, 5.0 * side))
    points = draw(st.lists(st.tuples(coordinate, coordinate),
                           min_size=count, max_size=count))
    velocities = draw(st.lists(st.tuples(velocity, velocity),
                               min_size=count, max_size=count))
    legs = draw(st.lists(st.one_of(st.sampled_from([0.5, 2.0]),
                                   st.floats(1e-6, 4.0)),
                         min_size=count, max_size=count))
    calls = draw(st.lists(st.sampled_from([0.0, 1e-13, 0.3, 0.5, 2.0, 3.7]),
                          min_size=1, max_size=5))
    seed = draw(st.integers(0, 2**16))
    return side, seed, points, velocities, legs, calls


def build(side, seed, points, velocities, legs):
    model = RandomDirectionModel(len(points), (0.0, 3.0 * side), side=side,
                                 mean_leg_duration=1.0, rng=seed)
    model.positions = np.array(points, dtype=float)
    model._velocities = np.array(velocities, dtype=float)
    model._speeds = np.hypot(*model._velocities.T)
    model._leg_remaining = np.array(legs, dtype=float)
    return model


@settings(max_examples=200, deadline=None)
@given(case=advance_cases())
@example(case=(1.0, 3, [(-0.0, 0.5), (0.0, 1.0), (1.0, -0.0)],
               [(-0.0, 0.1), (-0.0, -0.0), (2.5, -4.5)], [2.0, 0.5, 4.0],
               [2.0, 2.0]))
@example(case=(0.25, 7, [(0.25, 0.0)], [(4.9, -1.1)], [0.5], [0.3, 3.7]))
def test_advance_equals_the_sub_step_oracle(case):
    side, seed, points, velocities, legs, calls = case
    fast = build(side, seed, points, velocities, legs)
    slow = build(side, seed, points, velocities, legs)
    for dt in calls:
        fast.advance(dt)
        oracle.advance(slow, dt)
        for name in STATE:
            assert getattr(fast, name).tobytes() == \
                getattr(slow, name).tobytes(), (name, dt)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state
    assert np.all(fast.positions >= 0.0) and np.all(fast.positions <= side)


def test_a_coordinate_landing_on_negative_zero_is_folded():
    """``-0.0 + -0.0`` is ``-0.0``, inside the square by value but with
    its sign bit set: the fold maps it to ``+0.0``, as the oracle does."""
    points, velocities = [(-0.0, 0.5)], [(-0.0, 0.0)]
    fast = build(1.0, 1, points, velocities, [5.0])
    slow = build(1.0, 1, points, velocities, [5.0])
    fast.advance(1.0)
    oracle.advance(slow, 1.0)
    assert fast.positions.tobytes() == slow.positions.tobytes()
    assert not np.signbit(fast.positions[0, 0])
