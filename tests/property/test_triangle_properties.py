"""Blocked triangle counting vs the per-endpoint oracle.

:meth:`~repro.graph.csr.CSRAdjacency.triangle_counts` takes its probed
endpoints a block of rows at a time and expands candidates in chunks;
``tests/oracles/triangles.py`` marks one probed endpoint at a time.  The
two must agree on every graph under every split, so the suites below
shrink the mark budget and the candidate chunk until graphs of a few
dozen nodes run in many blocks and many chunks: random graphs with
planted cliques, stars and isolated nodes, and all 1,024 labeled
5-node graphs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.csr as csrmod
from repro.graph.csr import CSRAdjacency

from tests.oracles import triangles as oracle

# (mark budget in bytes, candidate chunk): one block and one chunk, then
# one-row blocks with one-edge chunks, then a few rows and candidates.
SPLITS = [
    (csrmod._MARK_BUDGET, csrmod._TRIANGLE_CHUNK),
    (1, 1),
    ("2 rows", 3),
    ("7 rows", 10),
]


def counts_under(csr, budget, chunk):
    """A fresh snapshot's counts with the two budgets patched."""
    n = len(csr)
    if isinstance(budget, str):
        budget = int(budget.split()[0]) * max(n, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(csrmod, "_MARK_BUDGET", budget)
        patch.setattr(csrmod, "_TRIANGLE_CHUNK", chunk)
        return CSRAdjacency(csr.indptr, csr.indices,
                            csr.ids).triangle_counts()


def assert_matches_oracle(csr):
    expected = oracle.triangle_counts(csr)
    for budget, chunk in SPLITS:
        assert counts_under(csr, budget, chunk).tolist() == expected.tolist()


@st.composite
def planted_graphs(draw):
    """A snapshot over ``n`` rows: random background edges, planted
    cliques and stars, and isolated rows scattered by a relabeling."""
    n = draw(st.integers(1, 40))
    isolated = draw(st.integers(0, 6))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]))
    cliques = draw(st.integers(0, 3))
    stars = draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = {(u, v) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p}
    for _ in range(cliques):
        members = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        edges |= set(itertools.combinations(sorted(members.tolist()), 2))
    for _ in range(stars):
        center = int(rng.integers(n))
        leaves = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
        edges |= {(min(center, leaf), max(center, leaf))
                  for leaf in leaves.tolist() if leaf != center}
    total = n + isolated
    label = rng.permutation(total)
    pairs = np.array([(label[u], label[v]) for u, v in edges],
                     dtype=np.int64).reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    return CSRAdjacency.from_pairs(lo, hi, range(total))


@settings(max_examples=80, deadline=None)
@given(csr=planted_graphs())
def test_blocked_counts_match_the_oracle(csr):
    assert_matches_oracle(csr)


def test_every_labeled_five_node_graph():
    slots = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(slots)):
        chosen = [pair for bit, pair in enumerate(slots) if mask >> bit & 1]
        pairs = np.array(chosen, dtype=np.int64).reshape(-1, 2)
        csr = CSRAdjacency.from_pairs(pairs[:, 0], pairs[:, 1], range(5))
        assert_matches_oracle(csr)


def test_oracle_counts_edges_among_neighbors():
    # The oracle itself, against Definition 1's numerator on a small
    # hand-checkable graph: a 4-clique {0,1,2,3} plus the triangle
    # {3,4,5} and the pendant edge 5-6.
    edges = (list(itertools.combinations(range(4), 2))
             + [(3, 4), (3, 5), (4, 5), (5, 6)])
    pairs = np.array(edges, dtype=np.int64)
    csr = CSRAdjacency.from_pairs(pairs[:, 0], pairs[:, 1], range(7))
    assert oracle.triangle_counts(csr).tolist() == [3, 3, 3, 4, 1, 1, 0]
