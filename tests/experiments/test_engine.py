"""Tests for the parallel experiment engine.

The load-bearing property: for a fixed seed, ``run_experiment`` produces
*identical* output for every ``jobs`` value -- the pool fan-out must be
invisible in the results.  Verified here on the engine itself (with a toy
spec) and end-to-end on several real experiment families.
"""

import numpy as np
import pytest

from repro.experiments.common import Preset
from repro.experiments.comparison import run_comparison
from repro.experiments.energy_lifetime import run_energy_lifetime
from repro.experiments.engine import (
    Executor,
    ExperimentSpec,
    PoolExecutor,
    SerialExecutor,
    resolve_jobs,
    run_experiment,
)
from repro.experiments.mobility import run_mobility_experiment
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.graph.geometry import chunk_pairs
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError

TINY = Preset(name="tiny", runs=3, intensity=150, mobility_nodes=60,
              mobility_duration=8.0, mobility_window=2.0)


# Module-level toy spec pieces (workers pickle `run` by qualified name).

def _toy_build(preset, rng, options):
    return list(range(options["tasks"]))


def _toy_run(task):
    return task * task


def _toy_reduce(preset, tasks, results, options):
    return {"tasks": list(tasks), "results": list(results)}


def _degree_of(task):
    graph, node = task
    return graph.degree(node), graph.edge_count()


TOY_SPEC = ExperimentSpec(name="toy", build=_toy_build, run=_toy_run,
                          reduce=_toy_reduce)


class TestResolveJobs:
    def test_explicit_counts_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs("3") == 3

    def test_auto_values_use_all_cores(self):
        expected = resolve_jobs("auto")
        assert expected >= 1
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected
        assert resolve_jobs("0") == expected  # argparse/pytest pass strings

    def test_invalid_values_rejected(self):
        for bad in (-1, "-2", "many", 1.5):
            with pytest.raises(ConfigurationError):
                resolve_jobs(bad)


class TestPoolExecutor:
    def test_serial_executes_in_order(self):
        assert PoolExecutor(jobs=1).submit_all([3, 1, 2], _toy_run) == \
            [9, 1, 4]

    def test_pool_preserves_order(self):
        tasks = list(range(20))
        assert PoolExecutor(jobs=4).submit_all(tasks, _toy_run) == \
            PoolExecutor(jobs=1).submit_all(tasks, _toy_run)

    def test_empty_and_single_task(self):
        assert PoolExecutor(jobs=4).submit_all([], _toy_run) == []
        assert PoolExecutor(jobs=4).submit_all([5], _toy_run) == [25]

    def test_pool_tasks_receive_csr_only_graphs_by_pickling(self):
        points = np.random.default_rng(9).uniform(0, 1, size=(2500, 2))
        graph = Graph.from_pair_chunks(chunk_pairs(points, 0.05), 2500)
        nodes = (0, 100, 2000)
        results = PoolExecutor(jobs=2).submit_all(
            [(graph, node) for node in nodes], _degree_of)
        assert results == [(graph.degree(node), graph.edge_count())
                           for node in nodes]

    def test_start_method_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "spawn")
        assert PoolExecutor(jobs=2).submit_all([3, 4], _toy_run) == [9, 16]

    def test_unknown_start_method_is_a_configuration_error(self,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "bogus")
        with pytest.raises(ConfigurationError, match="REPRO_MP_CONTEXT"):
            PoolExecutor(jobs=2).submit_all([3, 4], _toy_run)
        # A submission that stays in-process never reads the variable.
        assert PoolExecutor(jobs=1).submit_all([3, 4], _toy_run) == [9, 16]


class TestRunExperiment:
    def test_reducer_sees_tasks_and_ordered_results(self):
        outcome = run_experiment(TOY_SPEC, tasks=4)
        assert outcome == {"tasks": [0, 1, 2, 3], "results": [0, 1, 4, 9]}

    def test_preset_resolution(self):
        def build(preset, rng, options):
            return [preset.runs]

        def reduce(preset, tasks, results, options):
            return results[0]

        spec = ExperimentSpec(name="p", build=build, run=_toy_run,
                              reduce=reduce)
        assert run_experiment(spec, "smoke") == 4  # smoke preset: 2 runs

    def test_rejects_non_spec(self):
        with pytest.raises(ConfigurationError):
            run_experiment(lambda: None)


class _RecordingExecutor(Executor):
    """Serial executor that records every submission it served."""

    def __init__(self):
        self.submissions = []

    def submit_all(self, tasks, run):
        self.submissions.append(list(tasks))
        return [run(task) for task in tasks]


class TestExecutorSeam:
    def test_serial_and_pool_match_jobs_path(self):
        tasks = list(range(12))
        expected = [task * task for task in tasks]
        assert SerialExecutor().submit_all(tasks, _toy_run) == expected
        assert PoolExecutor(jobs=3).submit_all(tasks, _toy_run) == expected
        serial = run_experiment(TOY_SPEC, tasks=5, jobs=1)
        assert run_experiment(TOY_SPEC, tasks=5, jobs=2) == serial

    def test_explicit_executor_overrides_jobs(self):
        explicit = _RecordingExecutor()
        outcome = run_experiment(TOY_SPEC, tasks=3, jobs=4,
                                 executor=explicit)
        assert outcome["results"] == [0, 1, 4]
        assert explicit.submissions == [[0, 1, 2]]


class TestJobsDeterminism:
    """jobs=1 and jobs>1 must regenerate identical tables (fixed seed)."""

    def test_table2(self):
        serial = run_table2(TINY, rng=10, jobs=1)
        parallel = run_table2(TINY, rng=10, jobs=2)
        assert str(serial) == str(parallel)

    def test_table3(self):
        serial = run_table3(TINY, radii=(0.1,), rng=11, jobs=1)
        parallel = run_table3(TINY, radii=(0.1,), rng=11, jobs=4)
        assert str(serial) == str(parallel)

    def test_table4(self):
        serial = run_table4(TINY, radii=(0.15,), rng=12, jobs=1)
        parallel = run_table4(TINY, radii=(0.15,), rng=12, jobs=4)
        assert str(serial) == str(parallel)

    def test_table5(self):
        serial = run_table5(TINY, radii=(0.18,), rng=13, jobs=1)
        parallel = run_table5(TINY, radii=(0.18,), rng=13, jobs=3)
        assert str(serial) == str(parallel)

    def test_comparison(self):
        serial = run_comparison(TINY, regime="pedestrian", radius=0.3,
                                rng=14, runs=2, jobs=1)
        parallel = run_comparison(TINY, regime="pedestrian", radius=0.3,
                                  rng=14, runs=2, jobs=2)
        assert str(serial) == str(parallel)

    def test_mobility(self):
        serial = run_mobility_experiment(TINY, radius=0.3, rng=15, runs=2,
                                         jobs=1)
        parallel = run_mobility_experiment(TINY, radius=0.3, rng=15, runs=2,
                                           jobs=4)
        assert str(serial) == str(parallel)

    def test_energy_lifetime(self):
        serial = run_energy_lifetime(nodes=80, windows=40, runs=2, rng=16,
                                     jobs=1)
        parallel = run_energy_lifetime(nodes=80, windows=40, runs=2, rng=16,
                                       jobs=2)
        assert str(serial) == str(parallel)


class TestSerialPathMatchesHistoricalLoops:
    """The builders spawn per-run RNGs in the historical order, so the
    engine's serial path must be a pure refactor of the old loops."""

    def test_table4_statistics_are_seed_stable(self):
        # Two independent invocations agree cell-for-cell (regression
        # anchor for the builder's RNG spawn order).
        first = run_table4(TINY, radii=(0.15, 0.2), rng=99)
        second = run_table4(TINY, radii=(0.15, 0.2), rng=99)
        assert first.rows == second.rows

    def test_jobs_does_not_leak_into_titles(self):
        serial = run_table3(TINY, radii=(0.1,), rng=5, jobs=1)
        parallel = run_table3(TINY, radii=(0.1,), rng=5, jobs=2)
        assert serial.title == parallel.title
        assert serial.headers == parallel.headers
