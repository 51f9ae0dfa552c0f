"""Overhead experiment: the traffic cost of cluster maintenance.

Two measurements back the paper's motivation that the density metric
"limits the exchanged traffic generated while clusters are re-built and
the nodes' tables updated":

* **re-affiliation churn** -- under mobility, how many nodes change
  cluster-heads per window, per metric (each change is routing-table
  update traffic).  Measured over the same traces for all metrics.
* **beacon cost** -- bytes per step broadcast by the protocol stack on
  the wire-level model, per configuration (the fusion summary is the
  expensive payload; this quantifies what the 3-hop head separation
  costs in steady state).

Both run through the parallel experiment engine: churn fans out one task
per mobility trace, beacon cost one task per protocol configuration.
A mobility trace walks :func:`~repro.experiments.metric_windows.
metric_windows` (the incremental engines over the edge-delta stream); a
resampled trace clusters each independent redraw from scratch.
"""

from repro.experiments.common import get_preset, resolve_topology_spec
from repro.graph.models.registry import build_topology_spec
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.experiments.metric_windows import (METRIC_SCRATCH, metric_windows,
                                              model_snapshots)
from repro.experiments.mobility import SPEED_REGIMES, speed_range_in_sides
from repro.graph.generators import uniform_topology
from repro.metrics.overhead import reaffiliations
from repro.metrics.tables import Table
from repro.mobility.random_direction import RandomDirectionModel
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.util.rng import spawn_rngs

_METRICS = METRIC_SCRATCH


# ----------------------------------------------------------------------
# Re-affiliation churn
# ----------------------------------------------------------------------

def _run_churn_trace(task):
    """One trace; returns total re-affiliations per metric.

    With a topology spec the trace is *resampled*: each window draws an
    independent deployment from the same generator, so the measured
    churn is the identifier-anchoring floor -- how much affiliation a
    metric retains when the topology is completely redrawn (max-min's
    id anchoring survives it; density's structural heads do not).
    """
    (nodes, speed_range, radius, windows, mobility_window, spec,
     run_rng) = task
    totals = {name: 0.0 for name in _METRICS}
    previous = {name: None for name in _METRICS}
    if spec is not None:
        window_clusterings = _resample_windows(spec, windows, run_rng)
    else:
        model = RandomDirectionModel(nodes, speed_range, rng=run_rng)
        snapshots = model_snapshots(model, windows, mobility_window)
        window_clusterings = metric_windows(snapshots, radius)
    for clusterings in window_clusterings:
        for name, clustering in clusterings.items():
            if previous[name] is not None:
                totals[name] += reaffiliations(previous[name], clustering)
            previous[name] = clustering
    return totals


def _resample_windows(spec, windows, run_rng):
    """Per-window clusterings over independent draws of ``spec``."""
    for window_rng in spawn_rngs(run_rng, windows + 1):
        topology = build_topology_spec(spec, rng=window_rng)
        yield {name: scratch(topology)
               for name, scratch in _METRICS.items()}


def _build_churn(preset, rng, options):
    speed_range = speed_range_in_sides(SPEED_REGIMES[options["regime"]])
    windows = int(round(preset.mobility_duration / preset.mobility_window))
    spec = options.get("topology")
    if spec is not None:
        spec = resolve_topology_spec(spec, count=preset.mobility_nodes,
                                     radius=options["radius"])
    return [(preset.mobility_nodes, speed_range, options["radius"], windows,
             preset.mobility_window, spec, run_rng)
            for run_rng in spawn_rngs(rng, options["runs"])]


def _reduce_churn(preset, tasks, results, options):
    totals = {name: sum(trace[name] for trace in results)
              for name in _METRICS}
    windows = int(round(preset.mobility_duration / preset.mobility_window))
    window_count = options["runs"] * windows
    spec = tasks[0][5] if tasks else None
    regime = (f"total resampling of {spec}" if spec is not None
              else f"{options['regime']} mobility")
    table = Table(
        title=(f"Re-affiliation churn under {regime} "
               f"({preset.mobility_nodes} nodes, per window per 100 nodes)"),
        headers=["metric", "re-affiliations / window / 100 nodes"],
    )
    for name, total in totals.items():
        rate = 100.0 * total / (window_count * preset.mobility_nodes)
        table.add_row([name, rate])
    return table


REAFFILIATION_SPEC = ExperimentSpec(name="reaffiliation_churn",
                                    build=_build_churn,
                                    run=_run_churn_trace,
                                    reduce=_reduce_churn)


def run_reaffiliation_churn(preset="quick", regime="pedestrian", radius=0.1,
                            rng=None, runs=2, jobs=1, topology=None):
    """Mean re-affiliations per window per 100 nodes, per metric.

    ``topology`` (a generator spec) replaces the mobility trace with
    independent per-window redraws of that topology -- the total-churn
    regime that isolates identifier anchoring from motion continuity.
    """
    return run_experiment(REAFFILIATION_SPEC, get_preset(preset), rng=rng,
                          jobs=jobs, regime=regime, radius=radius, runs=runs,
                          topology=topology)


# ----------------------------------------------------------------------
# Beacon cost
# ----------------------------------------------------------------------

_BEACON_CONFIGURATIONS = {
    "no DAG, basic": {"use_dag": False},
    "DAG, basic": {"use_dag": True},
    "DAG, fusion": {"use_dag": True, "fusion": True},
}


def _run_beacon(task):
    """Steady-state bytes per node per step for one configuration."""
    name, stack_options, nodes, radius, steps, run_rng = task
    topology = uniform_topology(nodes, radius, rng=42)
    sim = StepSimulator(topology, standard_stack(topology=topology,
                                                 **stack_options),
                        rng=run_rng)
    sim.run(10)  # converge first: steady-state payloads are the point
    sim.traffic = type(sim.traffic)()
    sim.run(steps)
    return sim.traffic.mean_bytes_per_step() / len(topology.graph)


def _build_beacon(preset, rng, options):
    run_rngs = spawn_rngs(rng, len(_BEACON_CONFIGURATIONS))
    return [(name, stack_options, options["nodes"], options["radius"],
             options["steps"], run_rng)
            for (name, stack_options), run_rng
            in zip(_BEACON_CONFIGURATIONS.items(), run_rngs)]


def _reduce_beacon(preset, tasks, results, options):
    table = Table(
        title=(f"Beacon cost ({options['nodes']} nodes, "
               f"R={options['radius']}, steady state over "
               f"{options['steps']} steps)"),
        headers=["configuration", "bytes / node / step"],
    )
    for task, cost in zip(tasks, results):
        table.add_row([task[0], cost])
    return table


BEACON_SPEC = ExperimentSpec(name="beacon_cost", build=_build_beacon,
                             run=_run_beacon, reduce=_reduce_beacon)


def run_beacon_cost(nodes=150, radius=0.15, steps=30, rng=None, jobs=1):
    """Steady-state broadcast bytes per node per step, per configuration."""
    return run_experiment(BEACON_SPEC, rng=rng, jobs=jobs, nodes=nodes,
                          radius=radius, steps=steps)
