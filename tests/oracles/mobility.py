"""Mobility oracles: scratch twins of every delta-maintained window
source, and the random-direction sub-step loop with one fresh array per
operation.

:func:`repro.experiments.mobility.run_mobility_trace` maintains one
dynamic topology, repairs DAG names only when an added edge collides
two of them, and re-elects through one engine per configuration.  This
is the definition it must equal, run for run: every window rebuilds the
unit-disk topology from the positions, runs the full polite-renaming
repair over the persisted names, and elects each configuration with the
per-node fixpoint of ``tests/oracles/election.py``.

The other window sources get the same treatment: :func:`metric_windows`
(comparison and re-affiliation churn), :func:`window_hierarchies` (the
workload's mobility shape) and :func:`run_churn_epochs` (node churn)
rebuild each window's topology from scratch where the library walks one
edge-delta stream, and cluster it with the per-node oracles of
``tests/oracles/baselines.py`` and ``tests/oracles/election.py``
(:data:`METRIC_ORACLES`), never with the library's engines.  Each takes
the arguments the experiments pass to the library function, so a test
substitutes it for the module attribute and runs the experiment
in-process at ``jobs=1``.
"""

import numpy as np

from repro.experiments.common import get_preset
from repro.experiments.mobility import (
    CONFIGURATIONS,
    SPEED_REGIMES,
    MobilityRun,
    speed_range_in_sides,
)
from repro.experiments.workload import WORKLOAD_METRICS
from repro.hierarchy.hierarchy import build_hierarchy
from repro.metrics.stability import RetentionSeries
from repro.mobility.churn import ChurnProcess
from repro.mobility.random_direction import RandomDirectionModel
from repro.mobility.trace import topology_at
from repro.naming.assign import assign_dag_ids
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.monitor import steps_to_legitimacy
from repro.stabilization.predicates import make_stack_predicate
from repro.util.rng import as_rng
from tests.oracles import baselines
from tests.oracles.election import compute_clustering

#: Per-node oracle per metric of ``repro.experiments.metric_windows``.
METRIC_ORACLES = {
    "density": lambda topo: compute_clustering(topo.graph, tie_ids=topo.ids),
    "degree": lambda topo: baselines.degree_clustering(topo.graph,
                                                       tie_ids=topo.ids),
    "lowest-id": lambda topo: baselines.lowest_id_clustering(
        topo.graph, tie_ids=topo.ids),
    "max-min (d=2)": lambda topo: baselines.maxmin_clustering(
        topo.graph, d=2, tie_ids=topo.ids),
}


class RebuildTraceEvaluator:
    """One window from scratch: topology, name repair, per-node election.

    Called like the library's delta evaluator: ``evaluator(positions,
    state)`` yields ``(configuration name, clustering)`` per
    configuration, where ``state[name]["previous"]`` is that
    configuration's clustering of the previous window (or ``None``).
    """

    def __init__(self, radius, configurations, rng):
        self.radius = radius
        self.configurations = configurations
        self.rng = rng
        self.dag_ids = None

    def __call__(self, positions, state):
        topology = topology_at(positions, self.radius)
        # DAG names persist across windows; repair conflicts incrementally.
        self.dag_ids, _rounds = assign_dag_ids(topology, self.rng,
                                               initial_ids=self.dag_ids)
        for name, options in self.configurations.items():
            clustering = compute_clustering(
                topology.graph, tie_ids=topology.ids, dag_ids=self.dag_ids,
                order=options["order"], fusion=options["fusion"],
                previous=state[name]["previous"])
            yield name, clustering


def run_mobility_trace(regime, preset, radius=0.1, rng=None,
                       configurations=None, model_factory=None):
    """``run_mobility_trace``'s window loop over the scratch evaluator.

    Same arguments and result; windows in which the model holds no node
    are skipped and counted exactly as the library counts them.
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

    evaluate = RebuildTraceEvaluator(radius, configurations, rng)
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


def metric_windows(snapshots, radius):
    """:func:`repro.experiments.metric_windows.metric_windows` with every
    window rebuilt: ``topology_at`` plus :data:`METRIC_ORACLES` per
    snapshot."""
    for positions in snapshots:
        topology = topology_at(positions, radius)
        yield {name: oracle(topology)
               for name, oracle in METRIC_ORACLES.items()}


def window_hierarchies(snapshots, params, rng):
    """The workload's ``_window_hierarchies`` as one scratch
    :func:`build_hierarchy` per snapshot (names, election, overlay).

    The physical level comes from the per-node oracles: the density
    election draws its DAG names first, as a full build would."""
    metric = params.get("metric", "density")
    for positions in snapshots:
        topology = topology_at(positions, params["radius"])
        if metric == "density":
            dag_ids = None
            if topology.graph.edge_count() > 0:
                dag_ids, _rounds = assign_dag_ids(topology, rng)
            physical = compute_clustering(topology.graph, tie_ids=topology.ids,
                                          dag_ids=dag_ids)
        else:
            physical = METRIC_ORACLES[WORKLOAD_METRICS[metric]](topology)
        yield build_hierarchy(topology, rng=rng, physical_clustering=physical)


def run_churn_epochs(initial_count, radius, leave_probability, arrival_rate,
                     epochs, rng=None, step_budget=60):
    """:func:`repro.experiments.churn.run_churn_epochs` with every epoch's
    topology rebuilt by :meth:`~repro.mobility.churn.ChurnProcess.topology`."""
    rng = as_rng(rng)
    process = ChurnProcess(initial_count, radius, leave_probability,
                           arrival_rate, rng=rng)
    topology = process.topology()
    stack = standard_stack(namespace=4 * initial_count)
    simulator = StepSimulator(topology, stack, rng=rng)
    predicate = make_stack_predicate()
    steps_to_legitimacy(simulator, predicate, 300)

    ready = 0
    steps_total = 0.0
    for _ in range(epochs):
        process.epoch()
        simulator.set_topology(process.topology())
        report = steps_to_legitimacy(simulator, predicate, step_budget)
        if report.converged:
            ready += 1
            steps_total += report.steps
    mean_steps = steps_total / ready if ready else float(step_budget)
    return ready, epochs, mean_steps


def advance(model, dt):
    """``RandomDirectionModel.advance`` with fresh arrays per sub-step.

    The definition the in-place library loop must equal bit for bit:
    positions, reflections, velocities, leg timers and every RNG draw.
    Every sub-step folds and reflects every coordinate; the library
    reflects only in the sub-steps that leave a coordinate outside the
    square.
    """
    remaining = float(dt)
    while remaining > 1e-12:
        sub = min(remaining, float(np.min(model._leg_remaining)))
        sub = max(sub, 1e-9)
        proposed = model.positions + model._velocities * sub
        span = 2.0 * model.side
        folded = np.mod(proposed, span)
        flipped = folded > model.side
        model.positions = np.where(flipped, span - folded, folded)
        model._velocities = np.where(flipped, -model._velocities,
                                     model._velocities)
        model._leg_remaining -= sub
        expired = model._leg_remaining <= 1e-12
        if np.any(expired):
            _redraw(model, expired)
        remaining -= sub
    return model.positions


def _redraw(model, mask):
    count = int(np.count_nonzero(mask))
    low, high = model.speed_range
    speeds = model.rng.uniform(low, high, size=count)
    headings = model.rng.uniform(0.0, 2.0 * np.pi, size=count)
    model._speeds[mask] = speeds
    model._velocities[mask] = speeds[:, None] * np.column_stack(
        (np.cos(headings), np.sin(headings)))
    model._leg_remaining[mask] = model.rng.exponential(
        model.mean_leg_duration, size=count)
