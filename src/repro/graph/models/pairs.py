"""Shared pair-array plumbing for the topology generator suite.

Every generator in :mod:`repro.graph.models` emits the same vectorized
lexicographic pair-array format the geometry kernel produces, so graphs
arrive through ``Graph.from_pair_array`` and -- above
``STREAM_NODE_THRESHOLD`` or whenever a chunk budget is forced --
through the streaming ``Graph.from_pair_chunks`` path with its bounded
memory envelope.
"""

import numpy as np

from repro.graph.generators import Topology
from repro.graph.geometry import DEFAULT_CHUNK_PAIRS, STREAM_NODE_THRESHOLD
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError


def check_count(count, minimum=0):
    """Validate a node count parameter (coercing numeric literals)."""
    count = int(count)
    if count < minimum:
        raise ConfigurationError(f"count must be >= {minimum}, got {count}")
    return count


def canonical_pairs(pairs, count, drop_loops=False):
    """Canonicalize an ``(m, 2)`` index-pair array: ``i < j`` per row,
    lexicographically sorted, duplicates removed.

    ``drop_loops`` silently discards self-pairs (the configuration-model
    generators produce a few by construction); otherwise a self-pair is
    a :class:`ConfigurationError`.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    loops = lo == hi
    if loops.any():
        if not drop_loops:
            node = int(lo[int(np.argmax(loops))])
            raise ConfigurationError(f"self-loop on node {node!r} is not allowed")
        keep = ~loops
        lo, hi = lo[keep], hi[keep]
    if not lo.size:
        return np.empty((0, 2), dtype=np.int64)
    keys = np.unique(lo * np.int64(count) + hi)
    return np.column_stack((keys // count, keys % count))


def graph_from_pairs(pairs, count, max_pairs=None):
    """Build a :class:`Graph` from a canonical pair array.

    Below ``STREAM_NODE_THRESHOLD`` nodes the whole array feeds
    ``Graph.from_pair_array`` at once; above it -- or whenever
    ``max_pairs`` forces a chunk budget -- the rows stream through
    ``Graph.from_pair_chunks`` in bounded slices, the same contract the
    geometry kernel's ``chunk_pairs`` satisfies, so million-node
    combinatorial graphs never hold more than their compact pair arrays
    and the snapshot.
    """
    if max_pairs is None and count < STREAM_NODE_THRESHOLD:
        return Graph.from_pair_array(pairs, count)
    budget = DEFAULT_CHUNK_PAIRS if max_pairs is None else int(max_pairs)
    if budget < 1:
        raise ConfigurationError(f"max_pairs must be >= 1, got {max_pairs}")
    chunks = (pairs[start : start + budget] for start in range(0, len(pairs), budget))
    return Graph.from_pair_chunks(chunks, count)


def combinatorial_topology(pairs, count, max_pairs=None):
    """A position-free :class:`Topology` over canonical ``pairs``."""
    graph = graph_from_pairs(pairs, count, max_pairs=max_pairs)
    return Topology(graph)


def pair_stubs(degrees, rng):
    """Configuration-model pairing: one shuffled stub match per edge.

    ``degrees`` is an int array of per-node stub counts.  Returns the
    raw ``(m, 2)`` pair array (self-pairs and duplicates included --
    callers canonicalize with ``drop_loops=True``), so realized degrees
    are approximate wherever the matching collides, the standard
    simple-graph projection of the configuration model.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if (degrees < 0).any():
        raise ConfigurationError("degrees must be non-negative")
    stubs = np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)
    if len(stubs) % 2:
        stubs = stubs[:-1]  # an odd stub count leaves one unmatched
    stubs = rng.permutation(stubs)
    return stubs.reshape(-1, 2)
