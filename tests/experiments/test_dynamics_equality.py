"""Delta-stream runs reproduce the rebuild runs byte for byte.

The acceptance bar for the incremental engines: every mobility-driven
experiment must render the *identical* report whether its windows come
from :func:`~repro.experiments.metric_windows.metric_windows` in
``delta`` mode (incremental engines over the edge-delta stream) or in
``rebuild`` mode (per-window scratch clusterings), at every ``jobs``
value.  These tests pin that on the smoke preset, and the workload's
mobility shape also on the quick preset for every clustering metric.
"""

import pytest

from repro.experiments.comparison import run_comparison
from repro.experiments.metric_windows import (
    METRIC_ENGINES,
    METRIC_SCRATCH,
    check_dynamics,
    metric_windows,
)
from repro.experiments.overhead import run_reaffiliation_churn
from repro.experiments.workload import run_workload
from repro.mobility import RandomWaypointModel
from repro.util.errors import ConfigurationError


class TestCheckDynamics:
    def test_known_modes_pass_through(self):
        assert check_dynamics("delta") == "delta"
        assert check_dynamics("rebuild") == "rebuild"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            check_dynamics("clairvoyant")

    def test_metric_tables_agree(self):
        assert set(METRIC_SCRATCH) == set(METRIC_ENGINES)


class TestMetricWindows:
    def test_delta_equals_rebuild_per_window(self):
        model = RandomWaypointModel(40, (0.5, 1.5), rng=7)
        snapshots = [model.positions.copy()]
        for _ in range(4):
            model.advance(2.0)
            snapshots.append(model.positions.copy())
        rebuilt = list(metric_windows(snapshots, 0.18, dynamics="rebuild"))
        streamed = list(metric_windows(snapshots, 0.18, dynamics="delta"))
        assert len(rebuilt) == len(streamed) == len(snapshots)
        for want, got in zip(rebuilt, streamed):
            assert set(want) == set(got)
            for name in want:
                assert got[name].heads == want[name].heads, name
                assert got[name].parents == want[name].parents, name


@pytest.mark.parametrize("jobs", [1, 2])
class TestRunnersByteIdentical:
    def test_comparison(self, jobs):
        kwargs = dict(preset="smoke", rng=5, jobs=jobs)
        delta = run_comparison(dynamics="delta", **kwargs)
        rebuild = run_comparison(dynamics="rebuild", **kwargs)
        assert delta.formatted() == rebuild.formatted()

    def test_reaffiliation_churn(self, jobs):
        kwargs = dict(preset="smoke", rng=5, jobs=jobs)
        delta = run_reaffiliation_churn(dynamics="delta", **kwargs)
        rebuild = run_reaffiliation_churn(dynamics="rebuild", **kwargs)
        assert delta.formatted() == rebuild.formatted()

    def test_workload_mobility(self, jobs):
        kwargs = dict(preset="smoke", rng=5, jobs=jobs,
                      kinds=("mobility",), requests=400)
        delta = run_workload(dynamics="delta", **kwargs)
        rebuild = run_workload(dynamics="rebuild", **kwargs)
        assert str(delta) == str(rebuild)


@pytest.mark.parametrize("metric", ["density", "degree", "lowest_id",
                                    "maxmin"])
def test_workload_mobility_quick_preset(metric):
    """20 windows at 400 nodes: long enough for a graph maintained by
    per-edge dict updates to iterate its neighbor sets (and hence its
    gateways) in another order than a fresh build."""
    kwargs = dict(rng=2024, kinds=("mobility",), requests=400, metric=metric)
    delta = run_workload("quick", dynamics="delta", **kwargs)
    rebuild = run_workload("quick", dynamics="rebuild", **kwargs)
    assert str(delta) == str(rebuild)
