"""``paper_tables``: Table 4 at the paper's intensity plus fault recovery.

Table 4 (lambda = 1000, R in {0.05, 0.08, 0.1}, DAG on and off) and the
fault-recovery experiment (four fault classes on an 8 x 8 grid with
DAG, through the message-passing simulator) both go through
``run_experiment`` on the engine's ``PoolExecutor`` with
:data:`JOBS` workers, so at most that many tasks run at once.  Both run
:data:`RUNS_PER_SECOND` runs per cell per ``--seconds``, far fewer than
the paper's 1000.  Thousands
of small graphs exercise per-call overhead, the small-graph BFS path,
the scratch ``compute_clustering``, polite renaming, the simulator and
pool dispatch.

Every task runs inside :class:`TimedRun`, which times it in the worker
and, when tracing, brings the worker's spans back with the result.
Set-up runs both experiments with one run per cell in this process, on
the engine's ``SerialExecutor``: imports, first calls and caches, which
the forked pool workers inherit.  (Each pool submission forks and tears
down its own workers; with the pool in set-up, the set-up time jumped
by a third between sets of runs.)
"""

import os
from time import perf_counter

import repro.experiments.common
import repro.experiments.stabilization_time
import repro.experiments.table4
import repro.graph.generators
from perfbench.common import Outcome, probe_work
from perfbench.trace import Tracer
from repro.experiments.common import get_preset
from repro.experiments.engine import (
    ExperimentSpec,
    PoolExecutor,
    SerialExecutor,
    run_experiment,
)
from repro.experiments.stabilization_time import RECOVERY_SPEC
from repro.experiments.table4 import TABLE4_SPEC
from repro.experiments.paper_values import TABLE4_RADII
from repro.runtime.simulator import StepSimulator

JOBS = min(2, os.cpu_count() or 1)
RUNS_PER_SECOND = 2  # sizes a run to about --seconds at the parent
RECOVERY_SIDE = 8
RECOVERY_MAX_STEPS = 400

SETUP_REPEATS = 3
TAIL_PERCENTILE = 95  # ten tasks per run per cell: 300 tasks at 15 s

# Pool worker pid -> its tracer, created by the first task it runs.
_WORKER_TRACERS = {}


def instrument_worker(tracer):
    """Spans around the layer calls a table task makes."""
    def count_rounds(tracer, result, _args):
        tracer.count("naming.calls")
        tracer.count("naming.rounds", result[1])

    common = repro.experiments.common
    tracer.patch(common, "poisson_topology", "topology.poisson")
    tracer.patch(common, "assign_dag_ids", "naming.assign_dag_ids",
                 after=count_rounds)
    tracer.patch(common, "compute_clustering", "oracle.compute_clustering")
    tracer.patch(repro.graph.generators, "unit_disk_graph",
                 "geometry.unit_disk_graph")
    tracer.patch(repro.experiments.table4, "cluster_stats",
                 "clusters.cluster_stats")
    if not tracer.enabled:
        return
    stabilization = repro.experiments.stabilization_time
    make_predicate = stabilization.make_stack_predicate
    tracer.replace(
        stabilization, "make_stack_predicate",
        lambda *args, **kwargs: tracer.wrap(
            "stabilization.predicate", make_predicate(*args, **kwargs)))
    step = StepSimulator.step

    def traced_step(simulator):
        delivered = simulator.traffic.frames_delivered
        with tracer.span("runtime.step"):
            fired = step(simulator)
        tracer.count("runtime.steps")
        tracer.count("runtime.frames_delivered",
                     simulator.traffic.frames_delivered - delivered)
        return fired

    tracer.replace(StepSimulator, "step", traced_step)


class TimedRun:
    """A spec's per-run function, timed (and traced) in the worker.

    A pace probe runs in the worker before each task.  Returns
    ``(result, probe interval, task interval, spans, counts)``.
    """

    def __init__(self, run, traced):
        self.run = run
        self.traced = traced
        self.parent = os.getpid()

    def __call__(self, task):
        # The serial executor (set-up, or a pool of one worker) runs a
        # task in the submitting process; its patches then last for that
        # task only.
        in_process = os.getpid() == self.parent
        tracer = _WORKER_TRACERS.get(os.getpid())
        if tracer is None:
            tracer = Tracer(self.traced)
            instrument_worker(tracer)
            if not in_process:
                _WORKER_TRACERS[os.getpid()] = tracer
        try:
            probe_start = perf_counter()
            probe_work()
            probe_end = start = perf_counter()
            mark = len(tracer.spans)
            with tracer.span("engine.task"):
                result = self.run(task)
            end = perf_counter()
        finally:
            if in_process:
                tracer.restore()
        spans, counts = tracer.take(mark)
        return result, (probe_start, probe_end), (start, end), spans, counts


class Tables:
    """The executors plus the per-task record of every submission."""

    def __init__(self, seed, tracer, pace):
        self.seed = seed
        self.tracer = tracer
        self.pace = pace
        self.serial = SerialExecutor()
        self.pool = PoolExecutor(jobs=JOBS)
        for executor in (self.serial, self.pool):
            tracer.patch(executor, "submit_all", "engine.submit")
        self.tasks = []
        self.tables = None

    def _timed(self, spec):
        def reduce(preset, tasks, results, options):
            for _result, probe, task, spans, counts in results:
                self.pace.add(*probe)
                self.tasks.append(task)
                self.tracer.merge(spans, counts)
            return spec.reduce(preset, tasks,
                               [result[0] for result in results], options)

        return ExperimentSpec(name=spec.name, build=spec.build,
                              run=TimedRun(spec.run, self.tracer.enabled),
                              reduce=reduce)

    def submit(self, runs, executor):
        """Both tables at ``runs`` runs per cell on ``executor``; their
        text."""
        preset = get_preset("paper", runs=runs)
        table4 = run_experiment(self._timed(TABLE4_SPEC), preset,
                                rng=self.seed, executor=executor,
                                radii=TABLE4_RADII, topology=None)
        recovery = run_experiment(self._timed(RECOVERY_SPEC), preset,
                                  rng=self.seed, executor=executor,
                                  side=RECOVERY_SIDE,
                                  max_steps=RECOVERY_MAX_STEPS)
        return table4, recovery


def setup(seed, tracer, pace):
    state = Tables(seed, tracer, pace)
    state.submit(runs=1, executor=state.serial)
    state.tasks.clear()
    return state


def run(state, seconds, tracer, pace):
    runs = max(1, round(seconds * RUNS_PER_SECOND))
    start = perf_counter()
    state.tables = state.submit(runs, executor=state.pool)
    span = (start, perf_counter())
    elapsed = pace.scaled(*span)
    busy = sum(pace.scaled(*task) for task in state.tasks)
    return Outcome(
        items=len(state.tasks),
        item_span=span,
        steps=state.tasks,
        attempted=len(state.tasks),
        digest=[str(table) for table in state.tables],
        rates={"tasks_per_s": (len(state.tasks), span)},
        diagnostics={"runs": runs},
        counts={"engine.task_busy_s": busy,
                "engine.dispatch_overhead_s": elapsed - busy / JOBS},
    )


def check(state, outcome):
    """The Table 4 shape claims; every recovery run converges."""
    table4, recovery = state.tables
    clusters = table4.column("#clusters")
    with_dag, without = clusters[0::2], clusters[1::2]
    return [
        ("clusters fall with R", with_dag[0] > with_dag[-1]),
        ("DAG changes nothing measurable",
         all(abs(w - n) <= 0.35 * max(w, n)
             for w, n in zip(with_dag, without))),
        ("recovery converges",
         all(flag == "yes" for flag in recovery.column("all converged"))),
    ]
