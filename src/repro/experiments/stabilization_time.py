"""Empirical validation of the stabilization claims (Theorem 1, Lemmas 1-2).

Two experiments over the real distributed stack:

* **Scaling**: stabilization steps from a cold boot on grids of growing
  side.  Without the DAG, the adversarial identifier layout makes the
  joining tree span the network, so stabilization grows with the diameter;
  with the DAG it stays near-constant -- the entire point of Section 4.1.
* **Recovery**: steps to re-stabilize after transient faults of various
  classes, from a previously legitimate state (the self-stabilization
  property itself).
"""

from repro.experiments.common import get_preset
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.graph.generators import grid_topology
from repro.metrics.tables import Table
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.faults import (
    clear_caches,
    duplicate_dag_ids,
    garbage_shared,
    total_corruption,
)
from repro.stabilization.monitor import recovery_time, steps_to_legitimacy
from repro.stabilization.predicates import make_stack_predicate
from repro.util.rng import as_rng, spawn_rngs

FAULTS = {
    "garbage shared state": garbage_shared,
    "cold caches": clear_caches,
    "duplicated DAG names": duplicate_dag_ids,
    "total corruption": total_corruption,
}


def _grid(side, radius_cells=1.6):
    """A ``side x side`` grid spanning the unit square.

    ``radius_cells`` sets the transmission range in units of grid spacing
    (1.6 gives the 8-neighborhood of the paper's R=0.05 scenario); a
    one-node grid has no spacing and takes the unit square's side.
    """
    spacing = 1.0 / max(side - 1, 1)
    return grid_topology(side, side, radius_cells * spacing)


def cold_boot_steps(side, use_dag, rng, radius_cells=1.6, max_steps=None):
    """Stabilization steps from a cold boot on a ``side x side`` grid
    (see :func:`_grid` for ``radius_cells``)."""
    rng = as_rng(rng)
    topology = _grid(side, radius_cells)
    stack = standard_stack(topology=topology, use_dag=use_dag)
    simulator = StepSimulator(topology, stack, rng=rng)
    predicate = make_stack_predicate(use_dag=use_dag)
    budget = max_steps if max_steps is not None else 40 + 12 * side
    return steps_to_legitimacy(simulator, predicate, budget)


def _run_cold_boot(task):
    side, use_dag, run_rng = task
    report = cold_boot_steps(side, use_dag, run_rng)
    return report.steps if report.converged else float(report.budget)


def _build_scaling(preset, rng, options):
    rng_iter = iter(spawn_rngs(rng, 2 * options["runs"]
                               * len(options["sides"])))
    return [(side, use_dag, next(rng_iter))
            for side in options["sides"]
            for use_dag in (False, True)
            for _ in range(options["runs"])]


def _reduce_scaling(preset, tasks, results, options):
    runs = options["runs"]
    table = Table(
        title=("Stabilization steps from cold boot vs grid side "
               f"({runs} runs; expectation: no-DAG grows with side, "
               "DAG stays near-constant)"),
        headers=["grid side", "diameter-ish", "steps (no DAG)",
                 "steps (with DAG)"],
    )
    result_iter = iter(results)
    for side in options["sides"]:
        totals = {use_dag: sum(next(result_iter) for _ in range(runs)) / runs
                  for use_dag in (False, True)}
        table.add_row([side, side - 1, totals[False], totals[True]])
    return table


SCALING_SPEC = ExperimentSpec(name="stabilization_scaling",
                              build=_build_scaling, run=_run_cold_boot,
                              reduce=_reduce_scaling)


def run_scaling_experiment(sides=(4, 6, 8, 10, 12), runs=3, rng=None, jobs=1):
    """Stabilization steps vs grid side, with and without the DAG."""
    return run_experiment(SCALING_SPEC, rng=rng, jobs=jobs,
                          sides=tuple(sides), runs=runs)


def _run_recovery(task):
    fault_name, side, max_steps, run_rng = task
    topology = _grid(side)
    stack = standard_stack(topology=topology, use_dag=True)
    simulator = StepSimulator(topology, stack, rng=run_rng)
    predicate = make_stack_predicate(use_dag=True)
    steps_to_legitimacy(simulator, predicate, max_steps)
    report = recovery_time(simulator, FAULTS[fault_name], predicate,
                           max_steps)
    return report.steps, report.converged


def _build_recovery(preset, rng, options):
    # spawn_rngs is called once per fault class with the caller's raw
    # argument, matching the historical loop.
    return [(fault_name, options["side"], options["max_steps"], run_rng)
            for fault_name in FAULTS
            for run_rng in spawn_rngs(rng, preset.runs)]


def _reduce_recovery(preset, tasks, results, options):
    side = options["side"]
    table = Table(
        title=(f"Fault recovery on a {side}x{side} grid with DAG "
               f"({preset.runs} runs)"),
        headers=["fault", "mean recovery steps", "all converged"],
    )
    result_iter = iter(results)
    for fault_name in FAULTS:
        total = 0.0
        all_converged = True
        for _ in range(preset.runs):
            steps, converged = next(result_iter)
            total += steps
            all_converged = all_converged and converged
        table.add_row([fault_name, total / preset.runs,
                       "yes" if all_converged else "NO"])
    return table


RECOVERY_SPEC = ExperimentSpec(name="fault_recovery", build=_build_recovery,
                               run=_run_recovery, reduce=_reduce_recovery)


def run_recovery_experiment(preset="quick", side=8, rng=None, max_steps=400,
                            jobs=1):
    """Steps to recover legitimacy after each fault class."""
    return run_experiment(RECOVERY_SPEC, get_preset(preset), rng=rng,
                          jobs=jobs, side=side, max_steps=max_steps)
