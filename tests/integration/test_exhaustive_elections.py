"""Every labeled graph on six nodes elects as the per-node oracle does.

The election property suites sample graphs; this module enumerates all
``2**15 = 32768`` labeled graphs on six nodes (isolated nodes,
disconnected graphs and the complete graph included) and runs the
array election of :func:`~repro.clustering.oracle.compute_clustering`
against the per-node fixpoint of ``tests/oracles/election.py``: the
basic rule and the fusion rule, each with identity tie identifiers and
with reversed ones.

Tier-1 takes every 16th graph (8,192 elections).  With
``REPRO_EXHAUSTIVE=1`` (read by this module and
``test_exhaustive_small_graphs.py``) it takes all of them, as CI's
``exhaustive-small-graphs`` job runs it.
"""

import os
from itertools import combinations

import pytest

from repro.clustering.oracle import compute_clustering
from repro.graph.graph import Graph
from tests.oracles import election

FULL_SWEEP = os.environ.get("REPRO_EXHAUSTIVE") == "1"
STRIDE = 1 if FULL_SWEEP else 16

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
