"""Churn experiment: self-stabilization under node arrivals/departures.

Runs the full protocol stack through churn epochs: each epoch the node
population changes (departures take their state with them; arrivals boot
fresh), the simulator's topology is swapped, and the stack gets a fixed
budget of steps to re-stabilize.  Reported per churn intensity:

* the fraction of epochs in which full legitimacy was re-reached within
  the budget ("ready fraction");
* the mean number of steps to re-legitimacy over the epochs that made it.

The shape claim: recovery cost is local -- moderate churn heals within a
near-constant number of steps, because the density metric and the DAG
keep the affected region small (the robustness argument of Section 2).

Each run maintains one delta-updated topology across its epochs
(:meth:`~repro.mobility.churn.ChurnProcess.epoch_update`); the scratch
twin that rebuilds every epoch lives in ``tests/oracles/mobility.py``.
"""

from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.metrics.tables import Table
from repro.mobility.churn import ChurnProcess
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.monitor import steps_to_legitimacy
from repro.stabilization.predicates import make_stack_predicate
from repro.util.rng import as_rng, spawn_rngs


def run_churn_epochs(initial_count, radius, leave_probability, arrival_rate,
                     epochs, rng=None, step_budget=60):
    """One churn run; returns ``(ready_epochs, total_epochs, mean_steps)``.

    One :class:`~repro.graph.dynamic.DynamicTopology` is maintained
    across epochs: the graph, triangle, and density state downstream of
    each epoch's edge delta is updated in place (the geometry grid itself
    re-joins over the surviving population).  The maintained graph keeps
    the sorted node order and CSR layout of a scratch rebuild
    (:meth:`~repro.mobility.churn.ChurnProcess.topology`), which the
    simulator's determinism depends on.
    """
    rng = as_rng(rng)
    process = ChurnProcess(initial_count, radius, leave_probability,
                           arrival_rate, rng=rng)
    topology = process.dynamics().topology
    stack = standard_stack(namespace=4 * initial_count)
    simulator = StepSimulator(topology, stack, rng=rng)
    predicate = make_stack_predicate()
    steps_to_legitimacy(simulator, predicate, 300)

    ready = 0
    steps_total = 0.0
    for _ in range(epochs):
        simulator.set_topology(process.epoch_update().topology)
        report = steps_to_legitimacy(simulator, predicate, step_budget)
        if report.converged:
            ready += 1
            steps_total += report.steps
    mean_steps = steps_total / ready if ready else float(step_budget)
    return ready, epochs, mean_steps


def _run_one(task):
    initial_count, radius, leave_probability, arrival_rate, epochs, \
        run_rng = task
    return run_churn_epochs(initial_count, radius, leave_probability,
                            arrival_rate, epochs, rng=run_rng)


def _build(preset, rng, options):
    # spawn_rngs is called once per churn level with the caller's raw
    # argument, matching the historical loop.
    return [(options["initial_count"], options["radius"], leave_probability,
             arrival_rate, options["epochs"], run_rng)
            for leave_probability, arrival_rate in options["churn_levels"]
            for run_rng in spawn_rngs(rng, options["runs"])]


def _reduce(preset, tasks, results, options):
    runs = options["runs"]
    table = Table(
        title=(f"Churn recovery ({options['initial_count']} nodes, "
               f"R={options['radius']}, "
               f"{options['epochs']} epochs x {runs} runs)"),
        headers=["leave prob", "arrival rate", "ready fraction %",
                 "mean recovery steps"],
    )
    result_iter = iter(results)
    for leave_probability, arrival_rate in options["churn_levels"]:
        ready_total = 0
        epoch_total = 0
        steps_accumulated = 0.0
        for _ in range(runs):
            ready, total, mean_steps = next(result_iter)
            ready_total += ready
            epoch_total += total
            steps_accumulated += mean_steps
        table.add_row([leave_probability, arrival_rate,
                       100.0 * ready_total / epoch_total,
                       steps_accumulated / runs])
    return table


CHURN_SPEC = ExperimentSpec(name="churn", build=_build, run=_run_one,
                            reduce=_reduce)


def run_churn_experiment(initial_count=60, radius=0.22, epochs=15, runs=2,
                         rng=None, jobs=1,
                         churn_levels=((0.0, 0.0), (0.05, 3.0), (0.15, 9.0))):
    """Sweep churn intensities; returns a Table.

    ``churn_levels`` pairs a per-epoch leave probability with a Poisson
    arrival rate (matched so the population stays roughly stationary).
    """
    return run_experiment(CHURN_SPEC, rng=rng, jobs=jobs,
                          initial_count=initial_count, radius=radius,
                          epochs=epochs, runs=runs,
                          churn_levels=tuple(churn_levels))
