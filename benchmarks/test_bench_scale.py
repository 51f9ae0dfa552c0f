"""Bench: million-node streaming construction and 100k clustering windows.

The streaming path (``chunk_pairs`` -> ``Graph.from_pair_chunks``) is the
only construction that reaches 10^6 nodes in bounded memory; these
benches record its throughput as ``nodes_per_sec_built`` and one
100k-node election window as ``windows_per_sec_100k``, the two keys the
CI regression gate requires (``benchmarks/regression_gate.py``).

Scales are chosen so the whole file stays under a minute on a laptop:
the 10^6 build runs a single round (its ~20 s *is* the measurement; the
gate normalizes by the calibration bench), the 100k window a few.
"""

import numpy as np
import pytest

from repro.clustering.density import all_densities
from repro.clustering.incremental import IncrementalElection
from repro.graph.geometry import unit_disk_graph

# (nodes, radius): ~8 mean degree, sparse enough that the 10^6 build's
# candidate stream -- not the edge list -- is the memory story.
SCALES = {100_000: 0.005, 1_000_000: 0.0018}
ROUNDS = {100_000: 2, 1_000_000: 1}


def positions_for(count):
    rng = np.random.default_rng(count)
    return rng.uniform(0.0, 1.0, size=(count, 2))


@pytest.mark.parametrize("count", sorted(SCALES))
def test_bench_streaming_build(benchmark, count):
    positions = positions_for(count)
    radius = SCALES[count]
    graph, _ = benchmark.pedantic(
        lambda: unit_disk_graph(positions, radius),
        rounds=ROUNDS[count], iterations=1)
    benchmark.extra_info["edges"] = graph.edge_count()
    benchmark.extra_info["nodes_per_sec_built"] = (
        count / benchmark.stats.stats.mean)
    assert len(graph) == count


def test_bench_clustering_window_100k(benchmark):
    count = 100_000
    graph, _ = unit_disk_graph(positions_for(count), SCALES[count])
    densities = all_densities(graph, exact=True)
    tie_ids = {node: node for node in graph}

    def window():
        engine = IncrementalElection(order="basic")
        return engine.update(graph, densities, tie_ids=tie_ids)

    clustering = benchmark.pedantic(window, rounds=3, iterations=1,
                                    warmup_rounds=1)
    benchmark.extra_info["heads"] = len(clustering.heads)
    benchmark.extra_info["windows_per_sec_100k"] = (
        1.0 / benchmark.stats.stats.mean)
    assert len(clustering.heads) > 0
    assert set(clustering.parents) == set(graph.nodes)
