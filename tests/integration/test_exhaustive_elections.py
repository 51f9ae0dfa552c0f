"""Every labeled graph on six nodes clusters as the per-node oracles do.

The election and baseline property suites sample graphs; this module
enumerates all ``2**15 = 32768`` labeled graphs on six nodes (isolated
nodes, disconnected graphs and the complete graph included), each with
identity tie identifiers and with reversed ones, and runs

* the array election of :func:`~repro.clustering.oracle.compute_clustering`
  against the per-node fixpoint of ``tests/oracles/election.py``, under
  the basic rule and the fusion rule;
* the baseline clusterings (lowest-ID, highest-degree, and max-min at
  ``d = 1`` and ``d = 2``), each a fresh engine's first window, against
  the per-node loops of ``tests/oracles/baselines.py``.

Tier-1 takes every 16th graph for the election (8,192 elections) and
every 32nd for the baselines.  With ``REPRO_EXHAUSTIVE=1`` (read by
this module and ``test_exhaustive_small_graphs.py``) both take all of
them, as CI's ``exhaustive-small-graphs`` job runs it.
"""

import os
from itertools import combinations

import pytest

from repro.clustering.baselines import (
    degree_clustering,
    lowest_id_clustering,
    maxmin_clustering,
)
from repro.clustering.oracle import compute_clustering
from repro.graph.graph import Graph
from tests.oracles import baselines, election

FULL_SWEEP = os.environ.get("REPRO_EXHAUSTIVE") == "1"
STRIDE = 1 if FULL_SWEEP else 16
BASELINE_STRIDE = 1 if FULL_SWEEP else 32

NODES = 6
PAIRS = list(combinations(range(NODES), 2))
TIE_IDS = {
    "identity": {node: node for node in range(NODES)},
    "reversed": {node: NODES - 1 - node for node in range(NODES)},
}


def labeled_graph(mask):
    """The labeled graph whose edges are the pairs selected by ``mask``
    (bit ``i`` selects the ``i``-th pair)."""
    return Graph(nodes=range(NODES),
                 edges=[pair for bit, pair in enumerate(PAIRS)
                        if mask >> bit & 1])


@pytest.mark.parametrize("ties", sorted(TIE_IDS))
def test_every_labeled_graph_elects_as_the_oracle(ties):
    """Parents equal the oracle's under both rules; and the sweep meets
    graphs where fusion deposes a local maximum, so the fusion rule's
    join through a shared neighbor is exercised, not only its
    confirmations."""
    tie_ids = TIE_IDS[ties]
    deposing = 0
    for mask in range(0, 2 ** len(PAIRS), STRIDE):
        graph = labeled_graph(mask)
        heads = {}
        for fusion in (False, True):
            got = compute_clustering(graph, tie_ids=tie_ids, fusion=fusion)
            want = election.compute_clustering(graph, tie_ids=tie_ids,
                                               fusion=fusion)
            assert got.parents == want.parents, (mask, fusion)
            heads[fusion] = got.heads
        deposing += heads[True] != heads[False]
    assert deposing


@pytest.mark.parametrize("ties", sorted(TIE_IDS))
def test_every_labeled_graph_clusters_as_the_baseline_oracles(ties):
    """Parents equal the oracles' for every baseline; and the sweep meets
    graphs where max-min's singleton fallback fires (DESIGN.md,
    deviation 3), so the fallback is compared, not only the plain
    joins.  It fires only at ``d = 2``: in 386 graphs per tie order."""
    tie_ids = TIE_IDS[ties]
    fallbacks = {1: 0, 2: 0}
    for mask in range(0, 2 ** len(PAIRS), BASELINE_STRIDE):
        graph = labeled_graph(mask)
        for fast, slow in (
                (lowest_id_clustering, baselines.lowest_id_clustering),
                (degree_clustering, baselines.degree_clustering)):
            got = fast(graph, tie_ids=tie_ids)
            want = slow(graph, tie_ids=tie_ids)
            assert got.parents == want.parents, (mask, fast.__name__)
        for d in fallbacks:
            got = maxmin_clustering(graph, d=d, tie_ids=tie_ids)
            want = baselines.maxmin_clustering(graph, d=d, tie_ids=tie_ids)
            assert got.parents == want.parents, (mask, d)
            chosen = baselines.maxmin_chosen_heads(graph, d, tie_ids)
            fallbacks[d] += any(want.parents[node] == node != chosen[node]
                                for node in graph)
    assert fallbacks[1] == 0
    assert fallbacks[2] == 386 if FULL_SWEEP else fallbacks[2] > 0
