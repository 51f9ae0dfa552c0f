"""Bench: 100k-node builds for the non-UDG generator suite.

The regression gate requires ``nodes_per_sec_built`` for the two
families with genuinely different construction stories: Erdős–Rényi
(geometric skipping over the linear pair enumeration, no candidate
materialization) and Barabási–Albert (the sequential preferential-
attachment loop, the slowest generator by construction).  Both force
the chunked ``from_pair_chunks`` path via ``max_pairs`` so the bench
exercises the same streaming build the million-node UDG scale uses.
"""

import pytest

from repro.graph.models import erdos_renyi_topology, scale_free_topology

COUNT = 100_000
DEGREE = 8
# Forces from_pair_chunks below STREAM_NODE_THRESHOLD: the bench and
# the 10^6-scale path share one construction code path.
MAX_PAIRS = 200_000

BUILDERS = {
    "erdos_renyi": lambda: erdos_renyi_topology(
        COUNT, degree=DEGREE, rng=17, max_pairs=MAX_PAIRS),
    "scale_free": lambda: scale_free_topology(
        COUNT, degree=DEGREE, rng=17, max_pairs=MAX_PAIRS),
}

ROUNDS = {"erdos_renyi": 3, "scale_free": 1}


@pytest.mark.parametrize("model", sorted(BUILDERS))
def test_bench_model_build_100k(benchmark, model):
    topology = benchmark.pedantic(BUILDERS[model],
                                  rounds=ROUNDS[model], iterations=1)
    graph = topology.graph
    benchmark.extra_info["edges"] = graph.edge_count()
    benchmark.extra_info["nodes_per_sec_built"] = (
        COUNT / benchmark.stats.stats.mean)
    assert len(graph) == COUNT
    mean_degree = 2.0 * graph.edge_count() / COUNT
    assert DEGREE * 0.5 <= mean_degree <= DEGREE * 1.5
