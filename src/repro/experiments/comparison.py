"""Metric comparison: density vs degree vs lowest-ID vs max-min.

Section 3 ("Features") cites [16]'s finding that the density heuristic is
more stable under mobility than the degree and max-min metrics.  This
experiment replays one mobility trace per run and measures head retention
for every metric over the same topology sequence, making the comparison
paired.  It also reports mean cluster counts, since stability alone is
trivially won by degenerate clusterings.

Traces execute through the parallel experiment engine; each trace is one
task with its own pre-spawned generator, and the reducer concatenates the
per-window observations in task order, so the table is identical for
every ``jobs`` value.  The per-window clusterings come from the shared
:mod:`~repro.experiments.metric_windows` walk: the delta stream through
the incremental engines.
"""

from repro.experiments.common import get_preset
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.experiments.metric_windows import (METRIC_SCRATCH, metric_windows,
                                              model_snapshots)
from repro.experiments.mobility import SPEED_REGIMES, speed_range_in_sides
from repro.metrics.stability import head_retention
from repro.metrics.tables import Table
from repro.util.errors import ConfigurationError
from repro.mobility.random_direction import RandomDirectionModel
from repro.util.rng import spawn_rngs

METRICS = METRIC_SCRATCH


def _run_trace(task):
    """One mobility trace; returns per-metric observation lists."""
    nodes, speed_range, radius, windows, mobility_window, run_rng = task
    model = RandomDirectionModel(nodes, speed_range, rng=run_rng)
    retention = {name: [] for name in METRICS}
    membership_kept = {name: [] for name in METRICS}
    cluster_counts = {name: [] for name in METRICS}
    previous = {name: None for name in METRICS}
    snapshots = model_snapshots(model, windows, mobility_window)
    for clusterings in metric_windows(snapshots, radius):
        for name, clustering in clusterings.items():
            cluster_counts[name].append(clustering.cluster_count)
            if previous[name] is not None:
                retention[name].append(head_retention(
                    previous[name].heads, clustering.heads))
                membership_kept[name].append(_membership_retention(
                    previous[name], clustering))
            previous[name] = clustering
    return {"retention": retention, "membership": membership_kept,
            "counts": cluster_counts}


def _build(preset, rng, options):
    speed_range = speed_range_in_sides(SPEED_REGIMES[options["regime"]])
    windows = int(round(preset.mobility_duration / preset.mobility_window))
    return [(preset.mobility_nodes, speed_range, options["radius"], windows,
             preset.mobility_window, run_rng)
            for run_rng in spawn_rngs(rng, options["runs"])]


def _reduce(preset, tasks, results, options):
    merged = {name: {"retention": [], "membership": [], "counts": []}
              for name in METRICS}
    for trace in results:
        for name in METRICS:
            merged[name]["retention"].extend(trace["retention"][name])
            merged[name]["membership"].extend(trace["membership"][name])
            merged[name]["counts"].extend(trace["counts"][name])
    table = Table(
        title=(f"Metric stability under {options['regime']} mobility "
               f"({preset.mobility_nodes} nodes, "
               f"{preset.mobility_duration:.0f}s x "
               f"{options['runs']} trace(s))"),
        headers=["metric", "% heads retained / window",
                 "% nodes keeping their head", "mean #clusters"],
    )
    for name in METRICS:
        series = merged[name]
        if not series["retention"]:
            raise ConfigurationError("no retention windows observed")
        table.add_row([
            name,
            100.0 * sum(series["retention"]) / len(series["retention"]),
            100.0 * sum(series["membership"]) / len(series["membership"]),
            sum(series["counts"]) / len(series["counts"]),
        ])
    return table


COMPARISON_SPEC = ExperimentSpec(name="comparison", build=_build,
                                 run=_run_trace, reduce=_reduce)


def run_comparison(preset="quick", regime="pedestrian", radius=0.1, rng=None,
                   runs=1, jobs=1, topology=None):
    """Head retention per clustering metric over shared mobility traces.

    ``topology`` (a list of generator specs) switches the family to the
    static off-UDG robustness table: mobility traces need geometry, so
    arbitrary generators are instead compared by cluster count, head
    eccentricity and routing stretch at matched mean degree -- see
    :func:`repro.experiments.robustness.run_robustness`.
    """
    if topology:
        # Deferred import: robustness composes scalability's helpers,
        # keeping this module import-light for the mobility-only path.
        from repro.experiments.robustness import run_robustness
        return run_robustness(topology, preset=preset, radius=radius,
                              rng=rng, runs=runs, jobs=jobs)
    return run_experiment(COMPARISON_SPEC, get_preset(preset), rng=rng,
                          jobs=jobs, regime=regime, radius=radius, runs=runs)


def _membership_retention(before, after):
    """Fraction of nodes whose cluster-head assignment survived the window.

    Head *retention* compares head sets only and favors metrics anchored
    to immutable identifiers (a max-min head keeps its role as long as it
    stays the area's max id); membership retention instead measures how
    much of the network gets re-homed, the cost [16] cares about when
    routing tables must be rebuilt.
    """
    common = set(before.head_of) & set(after.head_of)
    kept = sum(before.head_of[node] == after.head_of[node]
               for node in common)
    return kept / len(common) if common else 1.0
