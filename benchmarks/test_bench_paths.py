"""Bench: CSR traversal kernel at 1k/5k/10k nodes.

Times the array-frontier BFS, the batched label-constrained head
eccentricity sweep (every cluster in one pass) and the vectorized
connected components, plus the pre-kernel dict loops of
``tests/oracles/traversal.py`` at 5000 nodes, so ``BENCH_ci.json``
records the batched-vs-loop ratios directly:
the acceptance bar is batched head eccentricity at least 5x faster than
the per-cluster induced-subgraph BFS it replaced.
"""

import pytest

from repro.clustering.baselines.lowest_id import lowest_id_clustering
from repro.graph.generators import uniform_topology
from repro.graph.paths import bfs_distances, connected_components
from tests.oracles import traversal as oracle

SCALES = {1000: 0.08, 5000: 0.08, 10000: 0.05}


@pytest.fixture(scope="module")
def topologies():
    topos = {count: uniform_topology(count, radius, rng=2024)
             for count, radius in SCALES.items()}
    for topo in topos.values():
        topo.graph.to_csr()  # prime the snapshot: the benches time traversal
    return topos


@pytest.fixture(scope="module")
def clusterings(topologies):
    return {count: lowest_id_clustering(topo.graph)
            for count, topo in topologies.items()}


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_bfs_distances(benchmark, topologies, count):
    graph = topologies[count].graph
    source = graph.nodes[0]
    distances = benchmark(lambda: bfs_distances(graph, source))
    assert distances[source] == 0


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_batched_head_eccentricity(benchmark, topologies, clusterings,
                                         count):
    clustering = clusterings[count]

    def run():
        clustering._sweep_cache = None  # cold: one full batched sweep
        return clustering.average_head_eccentricity()

    value = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert value >= 0.0


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_connected_components(benchmark, topologies, count):
    graph = topologies[count].graph
    components = benchmark(lambda: connected_components(graph))
    assert sum(map(len, components)) == count


def test_bench_bfs_dict_loop_5000_reference(benchmark, topologies):
    """The pre-kernel deque BFS (speedup baseline)."""
    graph = topologies[5000].graph
    source = graph.nodes[0]
    reference = benchmark.pedantic(
        lambda: oracle.bfs_distances(graph, source),
        rounds=1, iterations=1)
    assert reference == bfs_distances(graph, source)


def test_bench_head_eccentricity_subgraph_5000_reference(benchmark,
                                                         topologies,
                                                         clusterings):
    """The pre-kernel per-cluster induced-subgraph BFS (speedup baseline)."""
    clustering = clusterings[5000]

    def run():
        heads = clustering.heads
        return sum(oracle.head_eccentricity(clustering, head)
                   for head in heads) / len(heads)

    reference = benchmark.pedantic(run, rounds=1, iterations=1)
    clustering._sweep_cache = None
    assert reference == clustering.average_head_eccentricity()


def test_bench_components_dict_loop_5000_reference(benchmark, topologies):
    """The pre-kernel per-component BFS sweep (speedup baseline)."""
    graph = topologies[5000].graph
    reference = benchmark.pedantic(
        lambda: oracle.connected_components(graph),
        rounds=1, iterations=1)
    assert (sorted(map(sorted, reference))
            == sorted(map(sorted, connected_components(graph))))
