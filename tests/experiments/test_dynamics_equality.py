"""Delta-stream runs reproduce the scratch-rebuild runs byte for byte.

The acceptance bar for the incremental engines: every mobility-driven
experiment must render the *identical* report whether its windows come
from :func:`~repro.experiments.metric_windows.metric_windows`
(incremental engines over the edge-delta stream) or from the rebuild
oracle of ``tests/oracles/mobility.py`` (per-window scratch
clusterings), at every ``jobs`` value.  The oracle replaces the
library's window source in-process, so the rebuild runs use ``jobs=1``.
These tests pin that on the smoke preset, and the workload's mobility
shape also on the quick preset for every clustering metric.
"""

import pytest

from repro.experiments import comparison, overhead, workload
from repro.experiments.metric_windows import (
    METRIC_ENGINES,
    METRIC_SCRATCH,
    metric_windows,
)
from repro.mobility import RandomWaypointModel
from tests.oracles import mobility as mobility_oracle


class TestMetricWindows:
    def test_metric_tables_agree(self):
        assert set(METRIC_SCRATCH) == set(METRIC_ENGINES)

    def test_delta_equals_rebuild_per_window(self):
        model = RandomWaypointModel(40, (0.5, 1.5), rng=7)
        snapshots = [model.positions.copy()]
        for _ in range(4):
            model.advance(2.0)
            snapshots.append(model.positions.copy())
        rebuilt = list(mobility_oracle.metric_windows(snapshots, 0.18))
        streamed = list(metric_windows(snapshots, 0.18))
        assert len(rebuilt) == len(streamed) == len(snapshots)
        for want, got in zip(rebuilt, streamed):
            assert set(want) == set(got)
            for name in want:
                assert got[name].heads == want[name].heads, name
                assert got[name].parents == want[name].parents, name


@pytest.mark.parametrize("jobs", [1, 2])
class TestRunnersByteIdentical:
    def test_comparison(self, jobs, monkeypatch):
        kwargs = dict(preset="smoke", rng=5)
        delta = comparison.run_comparison(jobs=jobs, **kwargs)
        monkeypatch.setattr(comparison, "metric_windows",
                            mobility_oracle.metric_windows)
        rebuild = comparison.run_comparison(jobs=1, **kwargs)
        assert delta.formatted() == rebuild.formatted()

    def test_reaffiliation_churn(self, jobs, monkeypatch):
        kwargs = dict(preset="smoke", rng=5)
        delta = overhead.run_reaffiliation_churn(jobs=jobs, **kwargs)
        monkeypatch.setattr(overhead, "metric_windows",
                            mobility_oracle.metric_windows)
        rebuild = overhead.run_reaffiliation_churn(jobs=1, **kwargs)
        assert delta.formatted() == rebuild.formatted()

    def test_workload_mobility(self, jobs, monkeypatch):
        kwargs = dict(preset="smoke", rng=5, kinds=("mobility",),
                      requests=400)
        delta = workload.run_workload(jobs=jobs, **kwargs)
        monkeypatch.setattr(workload, "_window_hierarchies",
                            mobility_oracle.window_hierarchies)
        rebuild = workload.run_workload(jobs=1, **kwargs)
        assert str(delta) == str(rebuild)


@pytest.mark.parametrize("metric", ["density", "degree", "lowest_id",
                                    "maxmin"])
def test_workload_mobility_quick_preset(metric, monkeypatch):
    """12 windows at 400 nodes: long enough for a graph maintained by
    per-edge dict updates to iterate its neighbor sets (and hence its
    gateways) in another order than a fresh build."""
    kwargs = dict(rng=2024, kinds=("mobility",), requests=400, metric=metric)
    delta = workload.run_workload("quick", **kwargs)
    monkeypatch.setattr(workload, "_window_hierarchies",
                        mobility_oracle.window_hierarchies)
    rebuild = workload.run_workload("quick", **kwargs)
    assert str(delta) == str(rebuild)
