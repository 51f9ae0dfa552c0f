"""Per-window evaluation of every clustering metric over one trace.

The comparison and overhead experiments walk the same four metrics
(density, degree, lowest-ID, max-min) over the same topology sequence
and differ only in what they record per window.  This module owns the
shared walk: :func:`metric_windows` yields one ``{metric name:
Clustering}`` dict per position snapshot from the exact delta stream
through the engines of :mod:`repro.clustering.engine`.  A static or
resampled topology is clustered by :data:`METRIC_SCRATCH`, a fresh
engine's first window, so both paths run one implementation per
metric.
"""

from repro.clustering.engine import engine_for
from repro.mobility.trace import window_stream

#: Engine factory per metric (the delta path).
METRIC_ENGINES = {
    "density": lambda: engine_for("density"),
    "degree": lambda: engine_for("degree"),
    "lowest-id": lambda: engine_for("lowest-id"),
    "max-min (d=2)": lambda: engine_for("max-min", d=2),
}

#: Scratch clusterer per metric, for static and resampled topologies: a
#: fresh engine's ``init(topology)``.
METRIC_SCRATCH = {
    name: lambda topology, factory=factory: factory().init(topology)
    for name, factory in METRIC_ENGINES.items()
}


def model_snapshots(model, windows, window_seconds):
    """Yield ``windows + 1`` position snapshots, advancing ``model``
    after each one (the historical experiment-loop ordering, which fixes
    the model's RNG stream)."""
    for _ in range(windows + 1):
        yield model.positions.copy()
        model.advance(window_seconds)


def metric_windows(snapshots, radius):
    """Yield ``{metric name: Clustering}`` per position snapshot.

    One topology and one engine per metric (all four) are maintained
    across the whole sequence.
    """
    engines = {name: factory() for name, factory in METRIC_ENGINES.items()}
    for update in window_stream(snapshots, radius, track_densities=True):
        yield {
            name: engine.apply_delta(update)
            for name, engine in engines.items()
        }
