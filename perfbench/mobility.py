"""``mobility_paper``: the paper's Section 5 run at paper scale.

1000 nodes at R = 0.1 move by the random-direction model for 900 s;
every 2 s window re-evaluates the clustering under both configurations
(improved: incumbent order with fusion; basic) and records head
retention.  Both speed regimes run, one after the other, in the same
process.  The loop mirrors :func:`repro.experiments.mobility.
run_mobility_trace` call for call -- one random stream per trace shared
by the model and the DAG renaming, names repaired only when an added
edge collides two of them -- so its retention equals the library's.

Set-up builds both traces' window 0 (the deployment, first naming, cold
elections); the measured part is the 2 x 450 incremental windows.
"""

from importlib import import_module
from time import perf_counter

from perfbench.common import Outcome
from repro.clustering.incremental import IncrementalElection
from repro.clustering.oracle import compute_clustering
from repro.experiments.mobility import (
    CONFIGURATIONS,
    SPEED_REGIMES,
    speed_range_in_sides,
)
from repro.graph.dynamic import DynamicTopology
from repro.metrics.stability import RetentionSeries
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.trace import topology_at
from repro.naming.assign import assign_dag_ids
from repro.util.rng import as_rng

NODES = 1000
RADIUS = 0.1
WINDOW_S = 2.0
WINDOWS = 450  # 900 s of motion per regime

SETUP_REPEATS = 5
TAIL_PERCENTILE = 98  # 900 windows: eighteen beyond p98

CHECK_EVERY = 50  # windows re-derived from scratch by the correctness check


def instrument(tracer):
    """A span around the exact densities ``DynamicTopology`` starts
    from (it imports ``all_densities`` when called)."""
    # The package re-exports a function named ``density``, which hides
    # the module of that name from attribute access.
    tracer.patch(import_module("repro.clustering.density"), "all_densities",
                 "density.all_densities")


class Trace:
    """One regime's trace: the model, the maintained topology, one
    election engine and retention series per configuration."""

    def __init__(self, regime, seed, tracer):
        self.regime = regime
        self.rng = as_rng(seed)
        self.model = RandomDirectionModel(
            NODES, speed_range_in_sides(SPEED_REGIMES[regime]), rng=self.rng)
        self.engines = {name: IncrementalElection(order=options["order"],
                                                  fusion=options["fusion"])
                        for name, options in CONFIGURATIONS.items()}
        self.series = {name: RetentionSeries() for name in CONFIGURATIONS}
        self.previous = dict.fromkeys(CONFIGURATIONS)
        self.samples = []
        self.counts = {"delta_edges": 0, "dirty": 0, "naming_calls": 0,
                       "naming_rounds": 0, "windows": 0, "heads": 0,
                       "updates": 0}
        with tracer.span("dynamic.build"):
            self.dynamic = DynamicTopology(self.model.positions, RADIUS)
        topology = self.dynamic.topology
        self._rename(tracer, topology, initial=False)
        self._elect(tracer, topology, None, True, True)

    def _rename(self, tracer, topology, initial):
        with tracer.span("naming.assign_dag_ids"):
            self.dag_ids, rounds = assign_dag_ids(
                topology, self.rng,
                initial_ids=self.dag_ids if initial else None)
        self.counts["naming_calls"] += 1
        self.counts["naming_rounds"] += rounds

    def _elect(self, tracer, topology, density_changed, graph_changed,
               dag_changed):
        for name in CONFIGURATIONS:
            previous = self.previous[name]
            with tracer.span("incremental.update"):
                clustering = self.engines[name].update(
                    topology.graph, self.dynamic.densities,
                    tie_ids=topology.ids, dag_ids=self.dag_ids,
                    previous=previous, density_changed=density_changed,
                    graph_changed=graph_changed, dag_changed=dag_changed)
            if previous is not None:
                with tracer.span("stability.observe"):
                    self.series[name].observe(previous.heads,
                                              clustering.heads)
            self.previous[name] = clustering
            self.counts["heads"] += len(clustering.heads)
            self.counts["updates"] += 1

    def window(self, tracer):
        """Advance one window and re-evaluate it."""
        with tracer.span("mobility.advance"):
            self.model.advance(WINDOW_S)
        with tracer.span("dynamic.move"):
            update = self.dynamic.move(self.model.positions)
        delta = update.delta
        self.counts["windows"] += 1
        self.counts["delta_edges"] += delta.size
        self.counts["dirty"] += len(update.density_changed)
        sampled = self.counts["windows"] % CHECK_EVERY == 0
        if sampled:
            before = (self.model.positions.copy(), dict(self.previous))
        dag_ids = self.dag_ids
        repaired = any(dag_ids[u] == dag_ids[v]
                       for u, v in delta.added.tolist())
        if repaired:
            self._rename(tracer, update.topology, initial=True)
        self._elect(tracer, update.topology, update.density_changed,
                    bool(delta), repaired)
        if sampled:
            self.samples.append(before + (dict(self.dag_ids),
                                          dict(self.previous)))

    def retention(self):
        return {name: series.percent for name, series in self.series.items()}


def setup(seed, tracer, pace):
    return [Trace(regime, seed, tracer) for regime in SPEED_REGIMES]


def run(traces, seconds, tracer, pace):
    steps = []
    start = perf_counter()
    for trace in traces:
        for _ in range(WINDOWS):
            step_start = perf_counter()
            trace.window(tracer)
            steps.append((step_start, perf_counter()))
            pace.tick()
    span = (start, perf_counter())
    nodes = len(traces[0].dynamic)
    total = {key: sum(trace.counts[key] for trace in traces)
             for key in traces[0].counts}
    return Outcome(
        items=len(steps),
        item_span=span,
        steps=steps,
        attempted=len(steps),
        digest={trace.regime: trace.retention() for trace in traces},
        rates={"windows_per_s": (len(steps), span)},
        diagnostics={"retention_percent": {trace.regime: trace.retention()
                                           for trace in traces}},
        counts={"dynamic.delta_edges": total["delta_edges"],
                "dynamic.dirty_fraction": total["dirty"]
                / max(total["windows"] * nodes, 1),
                "naming.calls": total["naming_calls"],
                "naming.rounds": total["naming_rounds"],
                "naming.repair_ratio": (total["naming_calls"] - len(traces))
                / max(total["windows"], 1),
                "incremental.heads": total["heads"]
                / max(total["updates"], 1)},
    )


def check(traces, outcome):
    """Sampled windows equal the scratch oracle on a fresh topology."""
    checks = []
    for trace in traces:
        for positions, previous, dag_ids, current in trace.samples:
            topology = topology_at(positions, RADIUS)
            same = all(
                compute_clustering(
                    topology.graph, tie_ids=topology.ids, dag_ids=dag_ids,
                    order=options["order"], fusion=options["fusion"],
                    previous=previous[name]).parents == current[name].parents
                for name, options in CONFIGURATIONS.items())
            checks.append((f"{trace.regime} window", same))
    return checks
