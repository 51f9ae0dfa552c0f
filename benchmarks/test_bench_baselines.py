"""Bench: baseline clustering windows, incremental engines vs rebuilds.

Each baseline metric (lowest-ID, highest-degree, max-min d=2) replays
the same recorded sparse-mover trace (1% of nodes jitter per window,
the repo's churn-adjacent workload shape) two ways at 1000 and 5000
nodes:

* **rebuild** -- every window pays a full ``topology_at`` join plus a
  scratch clustering, which is a fresh engine's first window (the
  engine's seed: its array kernels over the whole graph).
* **delta** -- a ``DynamicTopology`` maintains the unit-disk graph
  incrementally (no density tracking: the baselines never read it) and
  one engine of :data:`repro.clustering.engine.ENGINES` repairs its
  clustering from the edge delta.

Both report ``windows_per_sec`` in ``extra_info``; the CI gate
(``benchmarks/regression_gate.py``) requires the greedy engines' delta
path to stay >= 3x faster per window than the rebuild path at 5000
nodes.  (Under 100% movers the dirty set blows the scratch-fallback
budget and the engines intentionally rebuild -- that shape is covered
by ``test_bench_dynamic.py``.)  The delta bench asserts its final
window equals the per-node oracle (``tests/oracles/baselines.py``) on
the final frame before reporting, so the ratio is only recorded for
bit-identical work.
"""

import numpy as np
import pytest

from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.engine import engine_for
from repro.graph.dynamic import DynamicTopology, WindowUpdate
from repro.mobility.trace import topology_at
from tests.oracles import baselines

SCALES = (1000, 5000)
RADIUS = 0.05
WINDOWS = 6

#: metric -> (engine factory, scratch clusterer, per-node oracle)
METRICS = {
    "lowest-id": (
        lambda: engine_for("lowest-id"),
        lambda topo: lowest_id_clustering(topo.graph, tie_ids=topo.ids),
        lambda topo: baselines.lowest_id_clustering(topo.graph, tie_ids=topo.ids),
    ),
    "degree": (
        lambda: engine_for("degree"),
        lambda topo: degree_clustering(topo.graph, tie_ids=topo.ids),
        lambda topo: baselines.degree_clustering(topo.graph, tie_ids=topo.ids),
    ),
    "max-min": (
        lambda: engine_for("max-min", d=2),
        lambda topo: maxmin_clustering(topo.graph, d=2, tie_ids=topo.ids),
        lambda topo: baselines.maxmin_clustering(
            topo.graph, d=2, tie_ids=topo.ids
        ),
    ),
}


@pytest.fixture(scope="module")
def traces():
    """Recorded sparse-mover frames per scale (1% jitter per window)."""
    frames = {}
    for count in SCALES:
        rng = np.random.default_rng(2024)
        positions = rng.uniform(0, 1, size=(count, 2))
        frames[count] = [positions.copy()]
        movers = max(count // 100, 1)
        for _ in range(WINDOWS):
            chosen = rng.choice(count, size=movers, replace=False)
            positions[chosen] = np.clip(
                positions[chosen]
                + rng.uniform(-0.01, 0.01, size=(movers, 2)),
                0, 1)
            frames[count].append(positions.copy())
    return frames


def _windows_per_sec(benchmark):
    benchmark.extra_info["windows_per_sec"] = (
        WINDOWS / benchmark.stats.stats.mean)


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("count", SCALES)
def test_bench_baseline_windows_rebuild(benchmark, traces, count, metric):
    """Scratch pipeline: full join + scratch clustering per window."""
    _factory, scratch, _oracle = METRICS[metric]
    frames = traces[count]

    def run():
        clustering = None
        for positions in frames[1:]:
            clustering = scratch(topology_at(positions, RADIUS))
        return clustering

    clustering = benchmark.pedantic(run, rounds=1, iterations=1)
    _windows_per_sec(benchmark)
    assert clustering.heads


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("count", SCALES)
def test_bench_baseline_windows_delta(benchmark, traces, count, metric):
    """Engine pipeline over the same windows (>= 3x at 5000 nodes for
    the greedy engines)."""
    factory, _scratch, oracle = METRICS[metric]
    frames = traces[count]
    dynamic = DynamicTopology(frames[0], RADIUS, track_densities=False)
    engine = factory()
    engine.apply_delta(WindowUpdate(topology=dynamic.topology, delta=None,
                                    density_changed=None, densities=None))

    def run():
        clustering = None
        for positions in frames[1:]:
            clustering = engine.apply_delta(dynamic.move(positions))
        return clustering

    clustering = benchmark.pedantic(run, rounds=1, iterations=1)
    _windows_per_sec(benchmark)
    reference = oracle(topology_at(frames[-1], RADIUS))
    assert clustering.heads == reference.heads
    assert clustering.parents == reference.parents
