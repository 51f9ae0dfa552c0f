"""Tests for the figure runners and stabilization experiments."""

import pytest

from repro.experiments.figures import run_figure1, run_figure2, run_figure3
from repro.experiments.stabilization_time import (
    cold_boot_steps,
    run_recovery_experiment,
    run_scaling_experiment,
)
from repro.experiments.common import Preset
from repro.util.errors import ConfigurationError


class TestFigures:
    def test_figure1_heads(self):
        result = run_figure1()
        assert result.clustering.heads == {"h", "j"}
        # Two clusters render as symbols a/b with uppercase heads.
        assert "A" in result.rendering and "B" in result.rendering
        assert "2 clusters" in result.legend

    def test_figure2_single_cluster(self):
        result = run_figure2(nodes=100, radius=0.18)
        assert result.clustering.cluster_count <= 2

    def test_figure3_many_clusters(self):
        result = run_figure3(nodes=100, radius=0.18, rng=0)
        assert result.clustering.cluster_count >= 4

    def test_renderings_are_multiline(self):
        result = run_figure2(nodes=64, radius=0.2)
        assert len(result.rendering.splitlines()) > 5


class TestStabilizationExperiments:
    def test_cold_boot_converges_both_ways(self):
        for use_dag in (False, True):
            report = cold_boot_steps(5, use_dag, rng=1)
            assert report.converged

    def test_dag_bounds_growth(self):
        # The headline claim: with the DAG, stabilization on the
        # adversarial grid does not grow linearly with the side.
        small = cold_boot_steps(4, True, rng=2)
        large = cold_boot_steps(10, True, rng=3)
        assert large.steps <= small.steps + 14

    def test_no_dag_grows_with_side(self):
        small = cold_boot_steps(4, False, rng=4)
        large = cold_boot_steps(12, False, rng=5)
        assert large.steps > small.steps

    def test_scaling_experiment_table(self):
        table = run_scaling_experiment(sides=(4, 6), runs=1, rng=6)
        assert len(table.rows) == 2

    def test_recovery_experiment_converges(self):
        preset = Preset(name="t", runs=1, intensity=0, mobility_nodes=0,
                        mobility_duration=0, mobility_window=1)
        table = run_recovery_experiment(preset, side=5, rng=7)
        assert all(flag == "yes" for flag in table.column("all converged"))

    def test_one_node_grid(self):
        # A 1x1 grid has no spacing; both experiments size its radius
        # by the same rule.
        preset = Preset(name="t", runs=1, intensity=0, mobility_nodes=0,
                        mobility_duration=0, mobility_window=1)
        table = run_recovery_experiment(preset, side=1, rng=8)
        assert all(flag == "yes" for flag in table.column("all converged"))
        scaling = run_scaling_experiment(sides=(1,), runs=1, rng=9)
        assert [row[0] for row in scaling.rows] == [1]

    def test_empty_grid_rejected(self):
        preset = Preset(name="t", runs=1, intensity=0, mobility_nodes=0,
                        mobility_duration=0, mobility_window=1)
        with pytest.raises(ConfigurationError):
            run_recovery_experiment(preset, side=0, rng=8)
        with pytest.raises(ConfigurationError):
            run_scaling_experiment(sides=(0,), runs=1, rng=9)
