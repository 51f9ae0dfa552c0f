"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro list
    python -m repro table3 --preset quick --seed 2024
    python -m repro table4 --preset paper --jobs 8
    python -m repro table5 --preset paper --jobs auto
    python -m repro figure3
    python -m repro mobility --preset quick
    python -m repro scalability
    python -m repro energy
    python -m repro doctor

Experiment output is printed as the same plain-text tables the benchmark
suite shows.  ``--jobs`` fans the Monte-Carlo runs out over a
``multiprocessing`` pool (``--jobs 1``, the default, runs in-process);
results are identical for every worker count (see
``repro.experiments.engine``).  ``--preset``, ``--topology`` and
``--metric`` are read only by the families in :data:`FLAG_READERS`; any
other experiment rejects them.
"""

import argparse
import sys

from repro.experiments.churn import run_churn_experiment
from repro.experiments.comparison import run_comparison
from repro.experiments.energy_lifetime import run_energy_lifetime
from repro.experiments.engine import resolve_jobs
from repro.experiments.figures import run_figure1, run_figure2, run_figure3
from repro.experiments.intensity_sweep import run_intensity_sweep
from repro.experiments.mobility import run_mobility_experiment
from repro.experiments.overhead import run_beacon_cost, \
    run_reaffiliation_churn
from repro.experiments.scalability import run_scalability
from repro.experiments.stabilization_time import (
    run_recovery_experiment,
    run_scaling_experiment,
)
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.experiments.workload import run_workload
from repro.util.errors import ConfigurationError


def _jobs_arg(value):
    try:
        return resolve_jobs(value)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error))


def _single_topology(args):
    """The lone ``--topology`` spec, or None (multi-spec is an error
    for families that evaluate one topology)."""
    if not args.topology:
        return None
    if len(args.topology) > 1:
        raise ConfigurationError(
            "this experiment evaluates a single topology; give one "
            "--topology (the comparison family accepts several)")
    return args.topology[0]


def _table1(args):
    table, exact = run_table1(jobs=args.jobs,
                              topology=_single_topology(args))
    print(table)
    if not args.topology:
        print("exact match with the paper:", exact)


def _preset_runner(runner):
    def run(args):
        print(runner(args.preset, rng=args.seed, jobs=args.jobs))
    return run


def _preset_topology_runner(runner):
    """Like :func:`_preset_runner`, also forwarding one ``--topology``."""
    def run(args):
        print(runner(args.preset, rng=args.seed, jobs=args.jobs,
                     topology=_single_topology(args)))
    return run


def _seed_runner(runner):
    def run(args):
        print(runner(rng=args.seed, jobs=args.jobs))
    return run


def _workload_runner(args):
    """``repro workload``: also forwards ``--metric`` (default density)."""
    print(run_workload(args.preset, rng=args.seed, jobs=args.jobs,
                       metric=args.metric or "density",
                       topology=_single_topology(args)))


def _comparison_runner(args):
    """``repro comparison``: any number of ``--topology`` specs switches
    the family to the off-UDG robustness table."""
    print(run_comparison(args.preset, rng=args.seed, jobs=args.jobs,
                         topology=args.topology))


def _churn_runner(args):
    print(run_reaffiliation_churn(args.preset, rng=args.seed, jobs=args.jobs,
                                  topology=_single_topology(args)))


EXPERIMENTS = {
    "table1": ("Table 1: densities on the Figure 1 example", _table1),
    "table2": ("Table 2: the step-model learning schedule",
               _preset_topology_runner(run_table2)),
    "table3": ("Table 3: steps to build the DAG",
               _preset_runner(run_table3)),
    "table4": ("Table 4: clusters on random geometric graphs",
               _preset_topology_runner(run_table4)),
    "table5": ("Table 5: clusters on the adversarial grid",
               _preset_topology_runner(run_table5)),
    "figure1": ("Figure 1: the clustered example",
                lambda args: print(run_figure1())),
    "figure2": ("Figure 2: grid without DAG (one giant cluster)",
                lambda args: print(run_figure2())),
    "figure3": ("Figure 3: grid with DAG (many compact clusters)",
                lambda args: print(run_figure3(rng=args.seed))),
    "mobility": ("Section 5 mobility: head re-election stability",
                 _preset_runner(lambda p, rng, jobs: run_mobility_experiment(
                     p, rng=rng, runs=2, jobs=jobs))),
    "comparison": ("Density vs degree vs lowest-ID vs max-min stability",
                   _comparison_runner),
    "scaling": ("Stabilization steps vs grid side (Lemma 2, empirically)",
                _seed_runner(lambda rng, jobs: run_scaling_experiment(
                    rng=rng, jobs=jobs))),
    "recovery": ("Fault-injection recovery times",
                 _preset_runner(lambda p, rng, jobs: run_recovery_experiment(
                     p, rng=rng, jobs=jobs))),
    "scalability": ("Extension: routing state, flat vs hierarchical",
                    _seed_runner(lambda rng, jobs: run_scalability(
                        rng=rng, jobs=jobs))),
    "energy": ("Extension: network lifetime, static vs energy-aware",
               _seed_runner(lambda rng, jobs: run_energy_lifetime(
                   rng=rng, jobs=jobs))),
    "intensity": ("Section 3 claim: head count falls as lambda grows",
                  _seed_runner(lambda rng, jobs: run_intensity_sweep(
                      rng=rng, jobs=jobs))),
    "churn": ("Re-affiliation traffic per metric under mobility",
              _churn_runner),
    "beacons": ("Steady-state beacon bytes per protocol configuration",
                _seed_runner(lambda rng, jobs: run_beacon_cost(
                    rng=rng, jobs=jobs))),
    "node-churn": ("Recovery under node arrivals and departures",
                   _seed_runner(lambda rng, jobs: run_churn_experiment(
                       rng=rng, jobs=jobs))),
    "workload": ("Serve traffic: latency, link load, head hot-spotting",
                 _workload_runner),
}

#: The experiments that read each family-specific flag; giving the flag
#: to any other experiment is a parser error rather than a silent no-op.
FLAG_READERS = {
    "preset": frozenset({"table2", "table3", "table4", "table5", "mobility",
                         "comparison", "recovery", "churn", "workload"}),
    "topology": frozenset({"table1", "table2", "table4", "table5",
                           "comparison", "churn", "workload"}),
    "metric": frozenset({"workload"}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["doctor", "list"],
                        help="experiment to run, 'list' to enumerate, or "
                             "'doctor' to report the topology registry and "
                             "graph I/O formats")
    parser.add_argument("--preset", default=None,
                        help="workload preset: quick (default), paper, smoke")
    parser.add_argument("--seed", type=int, default=2024,
                        help="root RNG seed (default 2024)")
    parser.add_argument("--topology", action="append", default=None,
                        metavar="SPEC",
                        help="topology generator spec "
                             "'name:param=val,...' (e.g. "
                             "erdos_renyi:degree=8 or file:trace.gml); "
                             "absent parameters get family defaults "
                             "(node count from the preset, matched mean "
                             "degree from --radius equivalents); repeat "
                             "the flag for the comparison sweep")
    parser.add_argument("--metric", default=None,
                        choices=("density", "degree", "lowest_id", "maxmin"),
                        help="workload mode: clustering metric maintained "
                             "under mobility traffic (default density)")
    parser.add_argument("--jobs", default=1, type=_jobs_arg,
                        help="worker processes for Monte-Carlo runs "
                             "(default 1; 0 or 'auto' = all cores); "
                             "results are identical for every value")
    return parser


def _doctor_main():
    """Report the registered topology generators and the graph I/O
    formats."""
    from repro.graph.io import FORMATS
    from repro.graph.models.registry import (
        accepted_parameters,
        is_geometric,
        registered_topologies,
    )
    names = registered_topologies()
    print(f"{len(names)} registered topology generator(s):")
    for name in names:
        kind = "geometric" if is_geometric(name) else "combinatorial"
        params = ", ".join(accepted_parameters(name)) or "-"
        print(f"  {name} ({kind}; params: {params})")
    print("graph I/O formats: " + ", ".join(FORMATS)
          + " (load via --topology file:PATH, save via repro.graph.io)")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, readers in FLAG_READERS.items():
        if getattr(args, flag) is not None and args.experiment not in readers:
            parser.error(f"{args.experiment} does not read --{flag} (read "
                         f"by: {', '.join(sorted(readers))})")
    if args.preset is None:
        args.preset = "quick"
    if args.experiment == "doctor":
        return _doctor_main()
    if args.experiment == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print(f"{name.ljust(width)}  {EXPERIMENTS[name][0]}")
        return 0
    try:
        EXPERIMENTS[args.experiment][1](args)
    except ConfigurationError as error:
        parser.error(str(error))
    return 0


if __name__ == "__main__":
    sys.exit(main())
