"""The Section 5 mobility experiment: cluster-head re-election stability.

Nodes move randomly for 15 minutes; every 2 seconds the clusters are
re-evaluated and we record which heads kept their role.  The paper
reports the mean percentage of retained heads per window:

* pedestrian speeds (0 to 1.6 m/s): ~82% with the Section 4.3 improvement
  rules vs ~78% without;
* vehicular speeds (0 to 10 m/s): ~31% vs ~25%.

The improved configuration uses the incumbent order *and* the fusion rule;
the basic configuration is the plain Section 4.2 algorithm.  Both are
evaluated over the *same* mobility trace so the comparison is paired.
DAG names persist on nodes across windows and are incrementally repaired
when movement creates conflicts, as a real deployment would.

One :class:`~repro.graph.dynamic.DynamicTopology` is maintained across
the whole trace -- exact per-window edge deltas, batched triangle
updates and array densities, and per-configuration
:class:`~repro.clustering.incremental.IncrementalElection` engines.  DAG
names are only re-repaired when an *added* edge collides two names, which
is exactly when a per-window scratch repair's legitimacy check would
trigger a redraw (and the only time it consumes RNG), so the random
streams stay aligned.  The scratch pipeline (``topology_at``, a full
``assign_dag_ids`` repair and a per-node election every window) is the
reference in ``tests/oracles/mobility.py``; the runs are bit-identical.
"""

from dataclasses import dataclass

from repro.clustering.incremental import IncrementalElection
from repro.experiments.common import get_preset
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.graph.dynamic import DynamicTopology
from repro.naming.assign import assign_dag_ids
from repro.experiments.paper_values import MOBILITY, SQUARE_SIDE_METERS
from repro.metrics.stability import RetentionSeries
from repro.metrics.tables import Table
from repro.mobility.random_direction import RandomDirectionModel
from repro.util.rng import as_rng, spawn_rngs

SPEED_REGIMES = {
    "pedestrian": MOBILITY["pedestrian"]["speed_range_mps"],
    "vehicular": MOBILITY["vehicular"]["speed_range_mps"],
}

CONFIGURATIONS = {
    "improved": {"order": "incumbent", "fusion": True},
    "basic": {"order": "basic", "fusion": False},
}


@dataclass(frozen=True)
class MobilityRun:
    """Retention percentages of one trace, per configuration.

    ``windows`` is the requested window count; ``skipped`` how many
    evaluation windows were skipped because the deployment was empty --
    skipped windows contribute to no retention denominator, so the pair
    keeps the reported percentages honest.
    """

    regime: str
    retention_percent: dict  # configuration name -> percent
    windows: int
    skipped: int = 0


def speed_range_in_sides(speed_range_mps, side_meters=SQUARE_SIDE_METERS):
    """Convert m/s to square-sides/s under the 1 km interpretation."""
    low, high = speed_range_mps
    return (low / side_meters, high / side_meters)


def run_mobility_trace(regime, preset, radius=0.1, rng=None,
                       configurations=None, model_factory=None):
    """One mobility trace, evaluated under each configuration.

    ``model_factory(count, speed_range_sides, rng)`` builds the mobility
    model (default: random direction).
    """
    preset = get_preset(preset)
    rng = as_rng(rng)
    configurations = configurations or CONFIGURATIONS
    speed_range = speed_range_in_sides(SPEED_REGIMES[regime])
    if model_factory is None:
        def model_factory(count, speeds, model_rng):
            return RandomDirectionModel(count, speeds, rng=model_rng)
    model = model_factory(preset.mobility_nodes, speed_range, rng)
    windows = int(round(preset.mobility_duration / preset.mobility_window))

    evaluate = _DeltaTraceEvaluator(radius, configurations, rng)
    state = {name: {"previous": None, "series": RetentionSeries()}
             for name in configurations}
    skipped = 0
    for _ in range(windows + 1):
        if len(model.positions) == 0:
            skipped += 1
            model.advance(preset.mobility_window)
            continue
        for name, clustering in evaluate(model.positions, state):
            run_state = state[name]
            if run_state["previous"] is not None:
                run_state["series"].observe(run_state["previous"].heads,
                                            clustering.heads)
            run_state["previous"] = clustering
        model.advance(preset.mobility_window)
    return MobilityRun(
        regime=regime,
        retention_percent={name: run_state["series"].percent
                           for name, run_state in state.items()},
        windows=windows,
        skipped=skipped,
    )


class _DeltaTraceEvaluator:
    """The delta-maintained per-window pipeline.

    Keeps the :class:`DynamicTopology` and one election engine per
    configuration alive across windows; re-runs the polite renaming only
    when an added edge collides two persisted DAG names (a per-window
    scratch repair's only redraw trigger, so RNG consumption matches
    draw for draw).
    """

    def __init__(self, radius, configurations, rng):
        self.radius = radius
        self.configurations = configurations
        self.rng = rng
        self.dag_ids = None
        self.dynamic = None
        self.engines = {name: IncrementalElection(order=options["order"],
                                                  fusion=options["fusion"])
                        for name, options in configurations.items()}

    def __call__(self, positions, state):
        if self.dynamic is None or len(self.dynamic.graph) != len(positions):
            # First (non-empty) window, or a model that changed its
            # population: seed the maintained state from scratch.  With
            # persisted names and a changed population the repair below
            # raises exactly as a scratch assign_dag_ids repair does.
            self.dynamic = DynamicTopology(positions, self.radius)
            topology = self.dynamic.topology
            delta = None
            density_changed = None
            graph_changed = True
        else:
            update = self.dynamic.move(positions)
            topology = update.topology
            delta = update.delta
            density_changed = update.density_changed
            graph_changed = bool(delta)
        dag_changed = self._repair_names(topology, delta)
        for name in self.configurations:
            clustering = self.engines[name].update(
                topology.graph, self.dynamic.densities,
                tie_ids=topology.ids, dag_ids=self.dag_ids,
                previous=state[name]["previous"],
                density_changed=density_changed,
                graph_changed=graph_changed, dag_changed=dag_changed)
            yield name, clustering

    def _repair_names(self, topology, delta):
        """Keep ``dag_ids`` exactly as the per-window scratch repair would.

        Names only change when two neighbors collide; with persisted
        names and an exact edge delta, a new collision can only ride an
        added edge, and a window without collisions consumes no RNG on
        a scratch repair either -- so skipping the no-op repair keeps
        the random stream (and therefore every later redraw) identical.
        """
        if self.dag_ids is None:
            self.dag_ids, _rounds = assign_dag_ids(topology, self.rng)
            return True
        dag_ids = self.dag_ids
        if delta is None:
            # Re-seeded mid-trace: run the full repair (which rejects a
            # changed population exactly as a scratch repair does).
            self.dag_ids, _rounds = assign_dag_ids(topology, self.rng,
                                                   initial_ids=dag_ids)
            return True
        if any(dag_ids[u] == dag_ids[v] for u, v in delta.added.tolist()):
            self.dag_ids, _rounds = assign_dag_ids(topology, self.rng,
                                                   initial_ids=dag_ids)
            return True
        return False


def _run_one(task):
    regime, preset, radius, run_rng = task
    return run_mobility_trace(regime, preset, radius=radius, rng=run_rng)


def _build(preset, rng, options):
    # spawn_rngs is called once per regime with the caller's raw argument,
    # matching the historical loop (an integer seed gives both regimes the
    # same trace seeds, keeping the regime comparison paired).
    return [(regime, preset, options["radius"], run_rng)
            for regime in SPEED_REGIMES
            for run_rng in spawn_rngs(rng, options["runs"])]


def _reduce(preset, tasks, results, options):
    runs = options["runs"]
    table = Table(
        title=(f"Mobility stability: % heads retained per "
               f"{preset.mobility_window:.0f}s window "
               f"({preset.mobility_nodes} nodes, "
               f"{preset.mobility_duration:.0f}s, {runs} trace(s); "
               "paper in parens)"),
        headers=["regime", "improved %", "improved paper", "basic %",
                 "basic paper"],
    )
    result_iter = iter(results)
    for regime in SPEED_REGIMES:
        totals = {name: 0.0 for name in CONFIGURATIONS}
        for _ in range(runs):
            outcome = next(result_iter)
            for name in totals:
                totals[name] += outcome.retention_percent[name]
        table.add_row([
            regime,
            totals["improved"] / runs, f"({MOBILITY[regime]['improved']})",
            totals["basic"] / runs, f"({MOBILITY[regime]['basic']})",
        ])
    return table


MOBILITY_SPEC = ExperimentSpec(name="mobility", build=_build, run=_run_one,
                               reduce=_reduce)


def run_mobility_experiment(preset="quick", radius=0.1, rng=None, runs=None,
                            jobs=1):
    """Full experiment: both regimes, averaged over traces; returns a Table."""
    preset = get_preset(preset)
    runs = runs if runs is not None else max(1, preset.runs // 4)
    return run_experiment(MOBILITY_SPEC, preset, rng=rng, jobs=jobs,
                          radius=radius, runs=runs)
