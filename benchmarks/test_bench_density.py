"""Bench: Definition-1 densities at 1k/5k/10k nodes.

Times the CSR-vectorized ``all_densities`` (cold snapshot, cold triangle
counts -- the mobility-workload shape where every round rebuilds the
graph) at three scales, the warm-snapshot re-read (the lifetime-workload
shape where windows repeat on an unchanged graph), and the per-edge
scan of ``tests/oracles/triangles.py`` at 5000 nodes so BENCH_ci.json
records the CSR-vs-dict-loop density ratio directly.
"""

import pytest

from repro.clustering.density import all_densities
from repro.graph.generators import uniform_topology
from tests.oracles import triangles as oracle

SCALES = {1000: 0.08, 5000: 0.08, 10000: 0.05}


@pytest.fixture(scope="module")
def topologies():
    topologies = {count: uniform_topology(count, radius, rng=2024)
                  for count, radius in SCALES.items()}
    for topology in topologies.values():
        # Bulk-built graphs carry only their CSR snapshot; materialize
        # the dict so the cold bench's snapshot drop rebuilds from it.
        topology.graph._adj
    return topologies


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_all_densities_cold(benchmark, topologies, count):
    graph = topologies[count].graph

    def run():
        graph._csr = None  # drop the snapshot: cold rebuild + recount
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
