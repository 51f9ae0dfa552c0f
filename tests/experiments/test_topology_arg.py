"""Tests for the ``--topology`` plumbing across experiment families."""

import pytest

from repro.experiments.comparison import run_comparison
from repro.experiments.common import matched_mean_degree, resolve_topology_spec
from repro.experiments.overhead import run_reaffiliation_churn
from repro.experiments.robustness import DEFAULT_SPECS, run_robustness
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.workload import run_workload
from repro.graph.dynamic import DynamicUnitDisk
from repro.graph.geometry import pairs_within_range
from repro.graph.models import build_topology_spec
from repro.util.errors import ConfigurationError

import numpy as np


class TestResolveTopologySpec:
    def test_fills_count_and_matched_degree(self):
        spec = resolve_topology_spec("erdos_renyi", count=200, radius=0.1)
        params = spec.param_dict()
        assert params["count"] == 200
        assert params["degree"] == round(matched_mean_degree(200, 0.1), 4)

    def test_explicit_parameters_win(self):
        spec = resolve_topology_spec("erdos_renyi:count=50,p=0.2",
                                     count=200, radius=0.1)
        params = spec.param_dict()
        assert params["count"] == 50
        assert params["p"] == 0.2
        assert "degree" not in params  # p pins the degree already

    def test_degree_param_metadata_blocks_conflict(self):
        # nw_small_world's k pins mean degree; its p (rewiring) does not.
        spec = resolve_topology_spec("nw_small_world:k=3",
                                     count=200, radius=0.1)
        assert "degree" not in spec.param_dict()
        spec = resolve_topology_spec("nw_small_world:p=0.3",
                                     count=200, radius=0.1)
        assert "degree" in spec.param_dict()

    def test_geometric_family_gets_radius(self):
        spec = resolve_topology_spec("uniform", count=150, radius=0.12)
        assert spec.param_dict() == {"count": 150, "radius": 0.12}

    def test_resolved_spec_builds(self):
        spec = resolve_topology_spec("scale_free", count=100, radius=0.1)
        topology = build_topology_spec(spec, rng=3)
        assert len(topology.graph) == 100


class TestComparisonFamily:
    def test_jobs_do_not_change_the_table(self):
        tables = [run_robustness(("erdos_renyi", "scale_free"),
                                 preset="smoke", rng=11, runs=1, jobs=jobs,
                                 samples=4)
                  for jobs in (1, 2)]
        assert str(tables[0]) == str(tables[1])

    def test_comparison_delegates_when_topologies_given(self):
        direct = run_robustness(("erdos_renyi",), preset="smoke", rng=5,
                                runs=1, jobs=1)
        via_comparison = run_comparison(preset="smoke", rng=5, runs=1,
                                        topology=("erdos_renyi",))
        assert str(direct) == str(via_comparison)

    def test_default_sweep_covers_four_families(self):
        assert len(DEFAULT_SPECS) >= 4

    def test_rows_per_topology_and_metric(self):
        table = run_robustness(("erdos_renyi",), preset="smoke", rng=5,
                               runs=1, jobs=1, samples=4)
        assert str(table).count("erdos_renyi") == 4  # one row per metric


class TestSingleTopologyFamilies:
    def test_table1_on_registered_generator(self):
        table, exact = run_table1(topology="ring:count=5")
        assert exact is False
        assert "ring" in str(table)

    def test_table1_default_still_exact(self):
        _table, exact = run_table1()
        assert exact is True

    def test_table2_deterministic_across_jobs(self):
        tables = [run_table2(preset="smoke", rng=9, jobs=jobs,
                             topology="erdos_renyi")
                  for jobs in (1, 2)]
        assert str(tables[0]) == str(tables[1])

    def test_churn_resampling_mode(self):
        table = run_reaffiliation_churn(preset="smoke", rng=3, runs=1,
                                        topology="scale_free")
        assert "total resampling" in str(table)

    def test_workload_rejects_mobility_with_topology(self):
        with pytest.raises(ConfigurationError, match="mobility"):
            run_workload(preset="smoke", kinds=("mobility",),
                         topology="erdos_renyi")

    def test_workload_smoke_on_small_world(self):
        tables = run_workload(preset="smoke", rng=4,
                              kinds=("uniform",),
                              topology="nw_small_world")
        assert tables


class TestGeometryGuards:
    def test_dynamic_unit_disk_requires_radius(self):
        # A combinatorial topology carries radius=None; forwarding it
        # must fail with a clear message, not a TypeError downstream.
        topology = build_topology_spec("erdos_renyi:count=30,degree=3,seed=1")
        with pytest.raises(ConfigurationError, match="radius"):
            DynamicUnitDisk(np.zeros((30, 2)), topology.radius)

    def test_pairs_within_range_requires_radius(self):
        with pytest.raises(ConfigurationError, match="radius"):
            pairs_within_range(np.zeros((3, 2)), None)
