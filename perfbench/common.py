"""What every workload module shares: its outcome record and the pace
probe that puts its times on one machine-speed scale."""

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

#: Seconds between pace probes.
PACE_INTERVAL_S = 0.1

#: Probe time of the reference machine (a 2-core VM) at its usual speed.
PACE_REFERENCE_S = 0.0019

_PROBE_VALUES = np.random.default_rng(0).random(200_000)


def probe_work():
    """Fixed work, ~2 ms: a sort of 200k floats.  Of the probes tried
    (interpreter loops, gathers, sorts), its slowdowns tracked the
    library's best."""
    return np.sort(_PROBE_VALUES)


class Pace:
    """The host's speed over time, sampled by a fixed probe.

    A shared host can run the same code 30% slower for seconds at a
    time.  A probe of fixed work measures that speed as reference probe
    time over measured probe time.  Workloads probe between their steps
    (:meth:`tick`), pool workers before each task.  :meth:`scaled`
    converts a wall-clock interval into the seconds it would have taken
    at the reference speed, interpolating the speed linearly between
    probes and leaving out the probes this process ran.  Without probes
    it returns wall-clock time.
    """

    def __init__(self):
        self.times = []   # probe midpoints, ascending
        self.speeds = []
        self.local_starts = []  # the probes this process ran, in order
        self.local_ends = []

    def add(self, start, end):
        """Record a probe that ran from ``start`` to ``end``."""
        index = bisect_right(self.times, (start + end) / 2)
        self.times.insert(index, (start + end) / 2)
        self.speeds.insert(index, PACE_REFERENCE_S / (end - start))

    def tick(self):
        """Probe here when the last probe is older than the interval."""
        if self.local_ends \
                and perf_counter() - self.local_ends[-1] < PACE_INTERVAL_S:
            return
        start = perf_counter()
        probe_work()
        end = perf_counter()
        self.add(start, end)
        self.local_starts.append(start)
        self.local_ends.append(end)

    def _speed(self, t, k):
        """Speed at ``t``, between sample ``k - 1`` and sample ``k``."""
        times, speeds = self.times, self.speeds
        if k == 0:
            return speeds[0]
        if k == len(times):
            return speeds[-1]
        share = (t - times[k - 1]) / (times[k] - times[k - 1])
        return speeds[k - 1] + share * (speeds[k] - speeds[k - 1])

    def scaled(self, start, end):
        """Seconds ``[start, end]`` takes at the reference speed."""
        times = self.times
        if not times:
            return end - start
        first = bisect_right(times, start)
        bounds = [start] + times[first:bisect_right(times, end)] + [end]
        total = sum((hi - lo) * (self._speed(lo, k) + self._speed(hi, k)) / 2
                    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]),
                                                 first))
        inside = (bisect_right(self.local_ends, end)
                  - bisect_left(self.local_starts, start))
        return total - max(inside, 0) * PACE_REFERENCE_S


@dataclass
class Outcome:
    """The measured part of one workload run.

    ``items`` units of work (route hops, windows, requests, tasks) ran
    during the ``item_span`` interval; ``steps`` holds the ``(start,
    end)`` interval of every closed-loop step (route chunk, window,
    batch, task).  ``attempted`` counts the operations the run
    performed.  ``digest`` is any JSON-able summary of the outputs,
    hashed so drift between commits shows.  ``rates`` maps the name of
    a workload-specific rate printed for people to ``(count, (start,
    end))``; ``diagnostics`` carries other such figures; ``counts`` the
    per-layer counts read from public return values and attributes.
    """

    items: int
    item_span: tuple
    steps: list
    attempted: int
    digest: object
    rates: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def digest_of(value):
    """Short stable hash of a JSON-able value."""
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(values, q):
    """Nearest-rank ``q``-th percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
