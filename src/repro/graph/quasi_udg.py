"""Quasi unit-disk graphs: the standard relaxation of the UDG radio model.

Real radios have no sharp range edge.  In the quasi-UDG model with inner
radius ``r_min`` and outer radius ``r_max``:

* pairs closer than ``r_min`` are always linked;
* pairs beyond ``r_max`` never are;
* pairs in the gray zone are linked with probability decaying linearly
  from 1 at ``r_min`` to 0 at ``r_max``.

Links are decided once per pair, so the result remains an undirected
graph satisfying the paper's bidirectional-communication assumption.
Used by robustness tests to check the clustering stack off the idealized
disk model.
"""

import numpy as np

from repro.graph.generators import Topology
from repro.graph.geometry import (
    STREAM_NODE_THRESHOLD,
    chunk_pairs,
    pairs_within_range,
)
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


def _keep_candidates(positions, candidates, r_min, r_max, span, rng):
    """Filter one candidate-pair array by the quasi-UDG link rule.

    Draws the gray-zone variates with one ``rng.random(k)`` call in pair
    order.  Consecutive ``Generator.random`` calls consume the underlying
    bit stream exactly like one large call, so filtering the pair
    sequence chunk-by-chunk produces bit-identical keep decisions to the
    all-at-once path.
    """
    delta = positions[candidates[:, 0]] - positions[candidates[:, 1]]
    distance = np.hypot(delta[:, 0], delta[:, 1])
    keep = distance <= r_min
    if span > 0:
        gray = np.flatnonzero(~keep)
        if gray.size:
            draws = rng.random(gray.size)
            keep[gray] = draws < (r_max - distance[gray]) / span
    return candidates[keep]


def quasi_unit_disk_graph(
    positions, r_min, r_max, rng=None, node_ids=None, max_pairs=None
):
    """Build a quasi-UDG over ``positions``; returns (graph, positions).

    Candidate pairs, distances, and the gray-zone keep decisions are all
    evaluated with array expressions; the gray-zone variates are drawn in
    pair order, the same stream (and therefore the same graph) a per-pair
    scalar draw produces.  Below ``STREAM_NODE_THRESHOLD`` nodes the
    whole candidate array is filtered at once and feeds
    ``Graph.from_pair_array``; above it -- or whenever ``max_pairs`` is
    passed -- candidates stream through ``chunk_pairs`` and each chunk is
    filtered in sequence, which preserves the draw order exactly while
    bounding peak memory.
    """
    if not 0 < r_min <= r_max:
        raise ConfigurationError(f"need 0 < r_min <= r_max, got {r_min}, {r_max}")
    rng = as_rng(rng)
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if node_ids is not None and len(node_ids) != n:
        raise ConfigurationError(
            f"node_ids has {len(node_ids)} entries for {n} positions"
        )
    span = r_max - r_min
    ids = n if node_ids is None else node_ids
    if max_pairs is None and n < STREAM_NODE_THRESHOLD:
        candidates = pairs_within_range(positions, r_max)
        if len(candidates):
            candidates = _keep_candidates(
                positions, candidates, r_min, r_max, span, rng
            )
        graph = Graph.from_pair_array(candidates, ids)
    else:
        kept = (
            _keep_candidates(positions, chunk, r_min, r_max, span, rng)
            for chunk in chunk_pairs(positions, r_max, max_pairs=max_pairs)
        )
        graph = Graph.from_pair_chunks(kept, ids)
    names = graph.nodes
    positions_by_id = {
        names[i]: (row[0], row[1]) for i, row in enumerate(positions.tolist())
    }
    return graph, positions_by_id


def quasi_uniform_topology(count, r_min, r_max, *, rng=None, side=1.0):
    """``count`` uniform nodes in a square, linked by the quasi-UDG model."""
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    rng = as_rng(rng)
    positions = rng.uniform(0.0, side, size=(count, 2))
    graph, positions_by_id = quasi_unit_disk_graph(positions, r_min, r_max, rng=rng)
    return Topology(graph, positions=positions_by_id, radius=r_max)
