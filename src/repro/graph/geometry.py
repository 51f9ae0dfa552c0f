"""Geometric support: positions in the unit square and unit-disk graphs.

The paper deploys nodes in a ``1 x 1`` square with transmission range ``R``
between 0.05 and 0.1; two nodes are linked iff their Euclidean distance is
at most ``R``.  Building that unit-disk graph naively is ``O(n^2)``; points
are binned into a cell grid of side ``R`` so only the 9 surrounding cells
are scanned per node -- and the scan itself is vectorized: points are
sorted by cell key, each neighbor-cell offset becomes one bulk
``searchsorted`` join, and candidate distances are evaluated with a single
broadcasted NumPy expression instead of Python-level loops over cell
members.

Two drivers share that kernel:

* :func:`pairs_within_range` materializes the whole pair array at once --
  the right call below ~10^5 nodes;
* :func:`chunk_pairs` streams the same rows, in the same lexicographic
  order, as bounded-size chunks -- so a 10^6-node unit-disk graph builds
  without ever holding the full candidate expansion in memory.
"""

import numpy as np

from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError

# Offsets covering each unordered cell pair exactly once: the cell itself
# plus half of its 8-neighborhood (the other half is reached from the
# opposite cell).
_CELL_OFFSETS = ((0, 0), (1, -1), (1, 0), (1, 1), (0, 1))

# The full 9-cell neighborhood, scanned by the streaming driver: a block
# of left endpoints must see candidates in *every* direction because its
# pairing rule is ``j > i`` in original index order, not cell order.
_BLOCK_OFFSETS = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))

# Streaming construction: default per-chunk row budget, and the node
# count at which the graph builders switch to the chunked path.
DEFAULT_CHUNK_PAIRS = 4_000_000
STREAM_NODE_THRESHOLD = 200_000


def _validated_positions(positions):
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError("positions must be an (n, 2) array")
    return positions


def _cell_keys(positions, radius):
    """Int64 cell key per point, plus the key stride (cells of side
    ``radius``).

    The stride leaves room for the ``dy = -1..1`` of the neighbor offsets
    so distinct cells never share a key.
    """
    cell = np.floor(positions / radius).astype(np.int64)
    cell -= cell.min(axis=0)
    stride = np.int64(cell[:, 1].max()) + 3
    if int(cell[:, 0].max() + 1) * int(stride) >= 2**62:
        # Fail loudly instead of wrapping int64 keys (coordinate span
        # around 2^31 times the radius -- far beyond any real workload).
        raise ConfigurationError(
            "coordinate span too large relative to radius for cell binning"
        )
    return cell[:, 0] * stride + cell[:, 1], stride


def pairs_within_range(positions, radius):
    """All index pairs at distance <= ``radius``, as an ``(m, 2)`` array.

    ``positions`` is an ``(n, 2)`` array.  Each returned row ``(i, j)``
    satisfies ``i < j``; rows are lexicographically sorted, so the output
    is a deterministic function of the input alone.  Uses vectorized cell
    binning: correctness is independent of the binning, which tests
    verify against brute force.
    """
    positions = _validated_positions(positions)
    if radius is None:
        raise ConfigurationError(
            "range queries need a transmission radius; got radius=None "
            "(only geometric topologies define one)")
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    n = len(positions)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)

    key, stride = _cell_keys(positions, radius)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    sorted_pos = positions[order]
    r2 = radius * radius
    indices = np.arange(n)

    chunks = []
    for dx, dy in _CELL_OFFSETS:
        target = sorted_key + (dx * stride + dy)
        if dx == 0 and dy == 0:
            # Within-cell pairs: for each point, only the later points of
            # its own (contiguous) cell block.
            lo = indices + 1
        else:
            lo = np.searchsorted(sorted_key, target, side="left")
        hi = np.searchsorted(sorted_key, target, side="right")
        counts = np.maximum(hi - lo, 0)
        total = int(counts.sum())
        if total == 0:
            continue
        left = np.repeat(indices, counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        right = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
        diff = sorted_pos[left] - sorted_pos[right]
        close = np.einsum("ij,ij->i", diff, diff) <= r2
        a = order[left[close]]
        b = order[right[close]]
        chunks.append(np.column_stack((np.minimum(a, b), np.maximum(a, b))))

    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return _sorted_rows(np.concatenate(chunks), n)


def _sorted_rows(pairs, n):
    """Distinct ``(i, j)`` index rows in lexicographic order.

    One sort of the scalar keys ``i * n + j`` -- the row order of a
    two-key lexsort, at a fraction of its cost.
    """
    keys = pairs[:, 0] * n + pairs[:, 1]
    keys.sort()
    rows = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(rows[:, 0], rows[:, 1]))
    return rows


def chunk_pairs(positions, radius, max_pairs=None):
    """Stream the ``pairs_within_range`` rows as bounded ``(k, 2)`` chunks.

    Yields ``int64`` arrays of at most ``max_pairs`` rows (default
    ``DEFAULT_CHUNK_PAIRS``) whose concatenation equals
    ``pairs_within_range(positions, radius)`` exactly: every row has
    ``i < j``, rows are globally lexicographically sorted, and no pair is
    repeated.  Peak memory is bounded by the chunk budget (plus the cell
    index itself), so the pair search scales to 10^6-node inputs whose
    full candidate expansion would not fit.

    Chunk *boundaries* are an implementation detail of the budget; the
    sequence of rows is the deterministic contract that chunk-by-chunk
    consumers (the quasi-UDG gray-zone RNG draws) rely on.
    """
    positions = _validated_positions(positions)
    if radius is None:
        raise ConfigurationError(
            "range queries need a transmission radius; got radius=None "
            "(only geometric topologies define one)")
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    budget = DEFAULT_CHUNK_PAIRS if max_pairs is None else int(max_pairs)
    if budget < 1:
        raise ConfigurationError(f"max_pairs must be >= 1, got {max_pairs}")
    return _iter_pair_chunks(positions, float(radius), budget)


def _iter_pair_chunks(positions, radius, budget):
    """Generator behind :func:`chunk_pairs` (validation happens eagerly).

    Left endpoints are processed in blocks of ascending original index;
    within a block every candidate ``j > i`` is found through one
    ``searchsorted`` join per 9-neighborhood offset against the globally
    cell-sorted order, then distance-filtered and sorted.  Blocks
    ascend in left index, so concatenating the per-block rows reproduces
    the global lexicographic order of the one-shot driver.
    """
    n = len(positions)
    if n < 2:
        return
    key, stride = _cell_keys(positions, radius)
    offsets = [dx * stride + dy for dx, dy in _BLOCK_OFFSETS]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    r2 = radius * radius
    # Block size targets the chunk budget: with ~occupancy points per
    # cell, each left endpoint expands to ~9 * occupancy candidates.
    distinct = int(np.count_nonzero(np.r_[True, sorted_key[1:] != sorted_key[:-1]]))
    per_point = max(1, (9 * n) // max(distinct, 1))
    block = max(1, min(n, budget // per_point))
    for start in range(0, n, block):
        stop = min(start + block, n)
        left_ids = np.arange(start, stop, dtype=np.int64)
        block_key = key[start:stop]
        parts = []
        for offset in offsets:
            target = block_key + offset
            lo = np.searchsorted(sorted_key, target, side="left")
            hi = np.searchsorted(sorted_key, target, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if not total:
                continue
            left = np.repeat(left_ids, counts)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            slot = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
            right = order[slot]
            forward = right > left
            left, right = left[forward], right[forward]
            if not left.size:
                continue
            diff = positions[left] - positions[right]
            close = np.einsum("ij,ij->i", diff, diff) <= r2
            if close.any():
                parts.append(np.column_stack((left[close], right[close])))
        if not parts:
            continue
        pairs = _sorted_rows(np.concatenate(parts), n)
        for cut in range(0, len(pairs), budget):
            yield pairs[cut : cut + budget]


def pairwise_within_range(positions, radius):
    """Index pairs ``(i, j)``, ``i < j``, with distance <= ``radius``.

    Tuple-yielding view of the pair search, kept for callers that consume
    Python pairs.  Streams through :func:`chunk_pairs` so peak memory is
    the chunk budget, not the full candidate expansion; bulk consumers
    should use the arrays directly.
    """
    return [
        (i, j)
        for chunk in chunk_pairs(positions, radius)
        for i, j in chunk.tolist()
    ]


def unit_disk_graph(positions, radius, node_ids=None, max_pairs=None):
    """Build the unit-disk :class:`Graph` over ``positions``.

    ``node_ids`` maps point index -> node identifier; defaults to the index
    itself.  Returns ``(graph, positions_by_id)`` where the second element
    is a dict from node id to its ``(x, y)`` position.

    Below ``STREAM_NODE_THRESHOLD`` nodes the whole ``pairs_within_range``
    array feeds ``Graph.from_pair_array`` at once; above it -- or whenever
    ``max_pairs`` is passed -- the :func:`chunk_pairs` stream feeds
    ``Graph.from_pair_chunks`` so peak memory stays bounded by the chunk
    budget.  Both paths produce the same edge set; the streamed graph
    materializes its dict adjacency lazily from the CSR snapshot.
    """
    positions = _validated_positions(positions)
    n = len(positions)
    if node_ids is None:
        node_ids = n
    else:
        if len(node_ids) != n:
            raise ConfigurationError(
                f"node_ids has {len(node_ids)} entries for {n} positions"
            )
        if len(set(node_ids)) != n:
            raise ConfigurationError("node identifiers must be unique")
    if max_pairs is None and n < STREAM_NODE_THRESHOLD:
        graph = Graph.from_pair_array(pairs_within_range(positions, radius), node_ids)
    else:
        graph = Graph.from_pair_chunks(
            chunk_pairs(positions, radius, max_pairs=max_pairs), node_ids
        )
    ids = graph.nodes
    positions_by_id = {
        ids[i]: (row[0], row[1]) for i, row in enumerate(positions.tolist())
    }
    return graph, positions_by_id
