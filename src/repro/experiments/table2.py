"""Table 2: the learning schedule of the step model.

The paper states that after step 1 every node knows its 1-neighbors, after
step 2 its 2-neighborhood (hence its density), and after step 3 its father;
head identities then need as many extra steps as the joining-tree depth.
This experiment runs the real protocol stack over an ideal channel and
records the first step at which each knowledge milestone holds globally.

Note on seeds: the engine port gave each deployment its own spawned
generator (the historical loop threaded one generator through all runs),
so fixed-seed numbers drifted once at that change; the milestone
structure (steps 1/2/3) is seed-independent.
"""

from repro.clustering.density import all_densities
from repro.clustering.oracle import compute_clustering
from repro.experiments.common import (
    build_topology,
    get_preset,
    resolve_topology_spec,
)
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.metrics.tables import Table
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.util.errors import ConvergenceError
from repro.util.rng import as_rng, spawn_rngs


def learning_milestones(topology, rng=None, max_steps=200, use_dag=False):
    """First steps at which each Table 2 milestone holds on every node.

    Returns a dict with keys ``"neighbors"``, ``"density"``, ``"father"``
    and ``"head"``.
    """
    rng = as_rng(rng)
    stack = standard_stack(topology=topology, use_dag=use_dag)
    simulator = StepSimulator(topology, stack, rng=rng)
    graph = topology.graph
    # Read on every step until it holds: build each Fraction once.
    truth_density = dict(all_densities(graph, exact=True))
    milestones = {}

    def check(name, condition):
        if name not in milestones and condition():
            milestones[name] = simulator.now

    def neighbors_known():
        return all(simulator.runtime(n).known_neighbors() == graph.neighbors(n)
                   for n in graph)

    def density_known():
        shared = simulator.shared_map("density")
        return all(shared[n] == truth_density[n] for n in graph)

    oracle = None

    def father_known():
        nonlocal oracle
        if oracle is None:
            dag_ids = simulator.shared_map("dag_id") if use_dag else None
            oracle = compute_clustering(graph, tie_ids=topology.ids,
                                        dag_ids=dag_ids)
        parents = simulator.shared_map("parent")
        return all(parents[n] == oracle.parent(n) for n in graph)

    def head_known():
        if oracle is None:
            return False
        heads = simulator.shared_map("head")
        return all(heads[n] == oracle.head(n) for n in graph)

    for _ in range(max_steps):
        simulator.step()
        check("neighbors", neighbors_known)
        check("density", density_known)
        if "density" in milestones:
            check("father", father_known)
        if "father" in milestones:
            check("head", head_known)
        if len(milestones) == 4:
            return milestones
    raise ConvergenceError(
        f"learning schedule incomplete after {max_steps} steps: {milestones}")


def _build(preset, rng, options):
    spec = options.get("topology")
    if spec is not None:
        spec = resolve_topology_spec(spec, count=round(preset.intensity / 4),
                                     radius=options["radius"])
    return [(preset.intensity / 4, options["radius"], spec, run_rng)
            for run_rng in spawn_rngs(rng, preset.runs)]


def _run_one(task):
    intensity, radius, spec, run_rng = task
    topology = build_topology("random", intensity, radius, run_rng,
                              topology=spec)
    if len(topology.graph) == 0:
        return None
    return learning_milestones(topology, rng=run_rng)


def _reduce(preset, tasks, results, options):
    totals = {"neighbors": 0.0, "density": 0.0, "father": 0.0, "head": 0.0}
    for milestones in results:
        if milestones is None:
            continue
        for key in totals:
            totals[key] += milestones[key]
    spec = tasks[0][2] if tasks else None
    deployment = "" if spec is None else f" on {spec}"
    table = Table(
        title=(f"Table 2: learning schedule{deployment} "
               "(mean first step, paper in parens)"),
        headers=["knowledge", "measured step", "paper"],
    )
    table.add_row(["1-neighbors (neighborhood table)",
                   totals["neighbors"] / preset.runs, "(1)"])
    table.add_row(["2-neighbors -> density",
                   totals["density"] / preset.runs, "(2)"])
    table.add_row(["neighbors' densities -> father",
                   totals["father"] / preset.runs, "(3)"])
    table.add_row(["cluster-head (3 + tree depth)",
                   totals["head"] / preset.runs, "(3 + depth)"])
    return table


TABLE2_SPEC = ExperimentSpec(name="table2", build=_build, run=_run_one,
                             reduce=_reduce)


def run_table2(preset="quick", radius=0.15, rng=None, jobs=1, topology=None):
    """Average milestone steps over random deployments; returns a Table.

    Each deployment gets its own independently spawned generator, so runs
    are order-independent and the table is identical for every ``jobs``.
    ``topology`` swaps the Poisson deployment for any registered
    generator spec (family defaults filled; explicit parameters win).
    """
    return run_experiment(TABLE2_SPEC, get_preset(preset), rng=rng,
                          jobs=jobs, radius=radius, topology=topology)
