"""Bench: unit-disk graph construction at 1k/5k/10k nodes.

Times the bulk ``Graph.from_pair_array`` hot path end to end (geometry
pair scan included) at the three scales the CSR work targets, plus the
per-edge dict-of-sets loop of ``tests/oracles/graph.py`` at 5000 nodes so
the benchmark artifact records the bulk-vs-loop construction ratio
directly.
"""

import numpy as np
import pytest

from repro.graph.generators import uniform_topology
from repro.graph.geometry import pairs_within_range
from repro.graph.graph import Graph
from tests.oracles.graph import adjacency_of, reference_adjacency

# (nodes, radius): paper-style densities, ~40-100 neighbors per node.
SCALES = {1000: 0.08, 5000: 0.08, 10000: 0.05}


def positions_for(count, radius):
    rng = np.random.default_rng(count)
    return rng.uniform(0.0, 1.0, size=(count, 2)), radius


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_bulk_construction(benchmark, count):
    positions, radius = positions_for(count, SCALES[count])
    pairs = pairs_within_range(positions, radius)
    graph = benchmark.pedantic(
        lambda: Graph.from_pair_array(pairs, count),
        rounds=3, iterations=1, warmup_rounds=1)
    benchmark.extra_info["edges"] = graph.edge_count()
    assert len(graph) == count


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_topology_end_to_end(benchmark, count):
    radius = SCALES[count]
    topo = benchmark.pedantic(
        lambda: uniform_topology(count, radius, rng=2024),
        rounds=3, iterations=1, warmup_rounds=1)
    assert len(topo.graph) == count


def test_bench_dict_loop_construction_5000_reference(benchmark):
    """The oracle's add-edge loop, one edge per pair (speedup baseline)."""
    positions, radius = positions_for(5000, SCALES[5000])
    pairs = pairs_within_range(positions, radius)
    reference = benchmark.pedantic(
        lambda: reference_adjacency(range(5000), pairs.tolist()),
        rounds=3, iterations=1, warmup_rounds=1)
    assert reference == adjacency_of(Graph.from_pair_array(pairs, 5000))
