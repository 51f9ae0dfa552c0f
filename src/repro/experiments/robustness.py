"""Off-UDG robustness: the metric comparison swept across topology models.

The paper's evaluation lives entirely on unit-disk deployments.  This
experiment asks how much of the density heuristic's behaviour survives
when the unit disk is replaced by other topology models -- decaying
distance rules, Erdős–Rényi, small worlds, scale-free graphs -- at the
*matched mean degree* (``n * pi * R**2``, the UDG-equivalent), so any
difference is structural, not a density artifact.

Each task is one (topology spec, run) cell: the generator builds a fresh
graph from the task's pre-spawned generator, the evaluation restricts to
the largest connected component (non-geometric models are not
connectivity-guaranteed), and every clustering metric of the comparison
family runs on it.  Per metric the run reports the cluster count, the
mean head eccentricity, and the mean routing stretch of a hierarchy
grown from that metric's own level-0 clustering over sampled node pairs.

Tasks execute through the parallel experiment engine with pre-spawned
per-task generators and a task-ordered reduce, so the emitted table is
byte-identical for every ``jobs`` value.
"""

from repro.experiments.common import get_preset, resolve_topology_spec
from repro.experiments.engine import ExperimentSpec, run_experiment
from repro.experiments.metric_windows import METRIC_SCRATCH
from repro.experiments.scalability import _largest_component_topology
from repro.graph.models.registry import build_topology_spec
from repro.hierarchy.hierarchy import build_hierarchy
from repro.metrics.tables import Table
from repro.util.errors import ConfigurationError
from repro.util.rng import spawn_rngs
from repro.workload.serve import CachedRouter

#: Sampled source/destination pairs per run for the stretch column.
DEFAULT_STRETCH_SAMPLES = 16

#: The default sweep: every non-UDG generator family, at matched degree.
DEFAULT_SPECS = ("distance_rule", "erdos_renyi", "nw_small_world", "scale_free")


def _mean_stretch(topology, clustering, samples, rng):
    """Mean routing stretch of a hierarchy grown from ``clustering``."""
    nodes = list(topology.graph.nodes)
    if len(nodes) < 2 or samples < 1:
        return 1.0
    hierarchy = build_hierarchy(topology, rng=rng, physical_clustering=clustering)
    router = CachedRouter(hierarchy)
    stretches = []
    for _ in range(samples):
        a, b = rng.choice(len(nodes), 2, replace=False)
        _hops, _flat, stretch = router.route_stretch(nodes[int(a)], nodes[int(b)])
        stretches.append(stretch)
    return sum(stretches) / len(stretches)


def _run_cell(task):
    """One (spec, run) cell; returns per-metric observation dicts."""
    spec, samples, task_rng = task
    build_rng, dag_rng, sample_rng = spawn_rngs(task_rng, 3)
    topology = _largest_component_topology(build_topology_spec(spec, rng=build_rng))
    cells = {}
    for name, scratch in METRIC_SCRATCH.items():
        clustering = scratch(topology)
        cells[name] = {
            "clusters": clustering.cluster_count,
            "eccentricity": clustering.average_head_eccentricity(),
            "stretch": _mean_stretch(topology, clustering, samples, sample_rng),
        }
    # dag_rng reserved: keeps the spawn layout stable if a DAG-renaming
    # column is added without invalidating recorded tables.
    del dag_rng
    return {"nodes": len(topology.graph), "metrics": cells}


def _build(preset, rng, options):
    specs = options["specs"]
    runs = options["runs"]
    samples = options["samples"]
    rngs = spawn_rngs(rng, len(specs) * runs)
    return [
        (spec, samples, rngs[index * runs + run])
        for index, spec in enumerate(specs)
        for run in range(runs)
    ]


def _reduce(preset, tasks, results, options):
    specs = options["specs"]
    runs = options["runs"]
    table = Table(
        title=(
            f"Clustering robustness across topology models "
            f"({runs} run(s) per model, matched mean degree)"
        ),
        headers=[
            "topology",
            "metric",
            "mean n",
            "mean #clusters",
            "mean head ecc.",
            "mean stretch",
        ],
    )
    for index, spec in enumerate(specs):
        cells = results[index * runs : (index + 1) * runs]
        if not cells:
            raise ConfigurationError(f"no runs observed for topology {spec}")
        mean_nodes = sum(c["nodes"] for c in cells) / len(cells)
        for name in METRIC_SCRATCH:
            series = [c["metrics"][name] for c in cells]
            table.add_row(
                [
                    spec.name,
                    name,
                    mean_nodes,
                    sum(s["clusters"] for s in series) / len(series),
                    sum(s["eccentricity"] for s in series) / len(series),
                    sum(s["stretch"] for s in series) / len(series),
                ]
            )
    return table


ROBUSTNESS_SPEC = ExperimentSpec(
    name="robustness", build=_build, run=_run_cell, reduce=_reduce
)


def run_robustness(
    topologies=None,
    preset="quick",
    radius=0.1,
    rng=None,
    runs=None,
    jobs=1,
    samples=DEFAULT_STRETCH_SAMPLES,
):
    """The off-UDG robustness table over the given topology specs.

    ``topologies`` is a list of spec strings or ``TopologySpec``s
    (default: the four non-UDG families at matched mean degree); family
    defaults -- node count from the preset, matched degree from
    ``radius`` -- are filled per spec, explicit parameters winning.
    """
    preset = get_preset(preset)
    if runs is None:
        runs = preset.runs
    specs = [
        resolve_topology_spec(spec, count=preset.intensity, radius=radius)
        for spec in (topologies or DEFAULT_SPECS)
    ]
    return run_experiment(
        ROBUSTNESS_SPEC,
        preset,
        rng=rng,
        jobs=jobs,
        specs=specs,
        runs=runs,
        samples=samples,
    )
