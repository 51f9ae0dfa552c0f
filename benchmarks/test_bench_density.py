"""Bench: Definition-1 densities at 1k/5k/10k nodes.

Times the CSR-vectorized ``all_densities`` (cold snapshot, cold triangle
counts -- the mobility-workload shape where every round rebuilds the
graph from the deployment's pair array) at three scales, the
warm-snapshot re-read (the lifetime-workload shape where windows repeat
on an unchanged graph), and the per-edge scan of
``tests/oracles/triangles.py`` at 5000 nodes so BENCH_ci.json records
the CSR-vs-dict-loop density ratio directly.
"""

import numpy as np
import pytest

from repro.clustering.density import all_densities
from repro.graph.generators import uniform_topology
from repro.graph.graph import Graph
from tests.oracles import triangles as oracle

SCALES = {1000: 0.08, 5000: 0.08, 10000: 0.05}


@pytest.fixture(scope="module")
def topologies():
    return {count: uniform_topology(count, radius, rng=2024)
            for count, radius in SCALES.items()}


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_all_densities_cold(benchmark, topologies, count):
    pairs = np.column_stack(topologies[count].graph.to_csr().edge_arrays())

    def run():
        # A fresh graph each round: cold snapshot build + recount.
        graph = Graph.from_pair_array(pairs, count)
        return all_densities(graph, exact=True)

    densities = benchmark.pedantic(run, rounds=3, iterations=1,
                                   warmup_rounds=1)
    assert len(densities) == count


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_all_densities_warm_snapshot(benchmark, topologies, count):
    graph = topologies[count].graph
    all_densities(graph, exact=True)  # prime snapshot + triangle memo
    densities = benchmark(lambda: all_densities(graph, exact=True))
    assert len(densities) == count


def test_bench_all_densities_dict_loop_5000_reference(benchmark, topologies):
    """The pre-PR per-edge triangle scan (speedup baseline)."""
    graph = topologies[5000].graph
    reference = benchmark.pedantic(
        lambda: oracle.all_densities(graph, exact=True),
        rounds=1, iterations=1)
    assert reference == all_densities(graph, exact=True)
