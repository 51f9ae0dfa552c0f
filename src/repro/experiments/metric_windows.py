"""Per-window evaluation of every clustering metric over one trace.

The comparison and overhead experiments walk the same four metrics
(density, degree, lowest-ID, max-min) over the same topology sequence
and differ only in what they record per window.  This module owns the
shared walk: :func:`metric_windows` yields one ``{metric name:
Clustering}`` dict per position snapshot from the exact delta stream
through the incremental engines.  The engines are exact, so every
window's clusterings equal a scratch rebuild of that snapshot
(:func:`~repro.mobility.trace.topology_at` plus :data:`METRIC_SCRATCH`).
"""

from repro.clustering.baselines.degree import degree_clustering
from repro.clustering.baselines.lowest_id import lowest_id_clustering
from repro.clustering.baselines.maxmin import maxmin_clustering
from repro.clustering.engine import engine_for
from repro.experiments.common import clustered
from repro.mobility.trace import window_stream


def _density_scratch(topology):
    clustering, _dag_ids = clustered(topology, use_dag=False)
    return clustering


#: Scratch builder per metric: static and resampled topologies, and the
#: clustering every engine window must equal.
METRIC_SCRATCH = {
    "density": _density_scratch,
    "degree": lambda topo: degree_clustering(topo.graph, tie_ids=topo.ids),
    "lowest-id": lambda topo: lowest_id_clustering(topo.graph, tie_ids=topo.ids),
    "max-min (d=2)": lambda topo: maxmin_clustering(topo.graph, d=2, tie_ids=topo.ids),
}

#: Incremental engine factory per metric (the delta path).
METRIC_ENGINES = {
    "density": lambda: engine_for("density"),
    "degree": lambda: engine_for("degree"),
    "lowest-id": lambda: engine_for("lowest-id"),
    "max-min (d=2)": lambda: engine_for("max-min", d=2),
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
