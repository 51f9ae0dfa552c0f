"""Geometric support: positions in the unit square and unit-disk graphs.

The paper deploys nodes in a ``1 x 1`` square with transmission range ``R``
between 0.05 and 0.1; two nodes are linked iff their Euclidean distance is
at most ``R``.  Building that unit-disk graph naively is ``O(n^2)``; points
are binned into a cell grid of side ``R`` so only the 9 surrounding cells
are scanned per node -- and the scan itself is vectorized: points are
sorted by cell key, neighboring cells become contiguous runs of that
order found by bulk ``searchsorted`` joins over 1-D coordinate columns,
instead of Python-level loops over cell members.

Every pair in the package is classified by one helper,
:func:`within_range` -- ``dx*dx + dy*dy <= r*r`` over gathered ``x`` /
``y`` columns.  The joins below call it, and so do the dynamic
subsystem's candidate updates and its triangle-delta probe
(:mod:`repro.graph.dynamic`), so an edge set maintained by deltas and one
rebuilt from scratch agree bit for bit by construction.

Three drivers share the cell join:

* :func:`pairs_within_range` (and its column form :func:`pair_columns`)
  materializes the whole pair array at once -- the right call below ~10^5
  nodes -- expanding the candidates of one cache-sized block of points
  at a time;
* :func:`chunk_pairs` streams the same rows, in the same lexicographic
  order, as bounded-size chunks -- so a 10^6-node unit-disk graph builds
  without ever holding the full candidate expansion in memory;
* :func:`subset_pair_columns` is the row-subset form of the streaming
  driver's 9-cell block join: it finds every pair touching a few rows,
  which is how the dynamic subsystem re-anchors drifted nodes.
"""

import math

import numpy as np

from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError

# Streaming construction: default per-chunk row budget, and the node
# count at which the graph builders switch to the chunked path.
DEFAULT_CHUNK_PAIRS = 4_000_000
STREAM_NODE_THRESHOLD = 200_000

# Candidate budget of one block of points in the one-shot cell join,
# small enough for the block's gathers and distance tests to stay in
# cache (16,384 measured fastest at 1000 and 5000 nodes).
_JOIN_BLOCK = 16_384

_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.flags.writeable = False


def within_range(x, y, i, j, r2):
    """Boolean mask: rows ``i[k]`` and ``j[k]`` lie within ``sqrt(r2)``.

    ``x`` / ``y`` are the coordinate columns; ``i`` / ``j`` equal-length
    row index arrays.  The package's one pair classification: every join
    and every incremental update evaluates ``dx*dx + dy*dy <= r2`` with
    exactly these operations, so they can never disagree on a boundary
    pair.  A NaN coordinate classifies every pair it touches as out of
    range.
    """
    dx = x.take(i)
    dx -= x.take(j)
    dy = y.take(i)
    dy -= y.take(j)
    dx *= dx
    dy *= dy
    dx += dy
    return dx <= r2


def _validated_positions(positions):
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ConfigurationError("positions must be an (n, 2) array")
    if not np.isfinite(positions).all():
        raise ConfigurationError("positions must be finite numbers")
    return positions


def _validated_radius(radius):
    if radius is None:
        raise ConfigurationError(
            "range queries need a transmission radius; got radius=None "
            "(only geometric topologies define one)"
        )
    if not math.isfinite(radius):
        raise ConfigurationError(f"radius must be finite, got {radius}")
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    return float(radius)


def coordinate_columns(positions):
    """Contiguous ``x`` / ``y`` columns of an ``(n, 2)`` array of finite
    positions, the layout every join and :func:`within_range` reads."""
    positions = _validated_positions(positions)
    return positions[:, 0].copy(), positions[:, 1].copy()


def _cell_keys(x, y, radius):
    """Int64 cell key ``cx * stride + cy`` per point, plus the stride
    (cells of side ``radius``).

    The stride leaves room for the ``dy = -1..1`` of the neighbor offsets
    so distinct cells never share a key -- and so the three cells
    ``(cx, cy - 1 .. cy + 1)`` of one column have consecutive keys: in
    the cell-sorted order they form one contiguous run.
    """
    cx = np.floor(x / radius).astype(np.int64)
    cy = np.floor(y / radius).astype(np.int64)
    cx -= cx.min()
    cy -= cy.min()
    stride = np.int64(cy.max()) + 3
    if int(cx.max() + 1) * int(stride) >= 2**62:
        # Fail loudly instead of wrapping int64 keys (coordinate span
        # around 2^31 times the radius -- far beyond any real workload).
        raise ConfigurationError(
            "coordinate span too large relative to radius for cell binning"
        )
    cx *= stride
    cx += cy
    return cx, stride


def _sorted_rows(keys, n):
    """Decode scalar pair keys ``i * n + j`` into ``(i, j)`` rows, sorted.

    Sorts ``keys`` in place: one scalar sort gives the row order of a
    two-key lexsort, at a fraction of its cost.
    """
    keys.sort()
    rows = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(rows[:, 0], rows[:, 1]))
    return rows


def pairs_within_range(positions, radius):
    """All index pairs at distance <= ``radius``, as an ``(m, 2)`` array.

    ``positions`` is an ``(n, 2)`` array.  Each returned row ``(i, j)``
    satisfies ``i < j``; rows are lexicographically sorted, so the output
    is a deterministic function of the input alone.  Uses vectorized cell
    binning: correctness is independent of the binning, which tests
    verify against brute force.
    """
    x, y = coordinate_columns(positions)
    radius = _validated_radius(radius)
    n = len(x)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    return _sorted_rows(_join_keys(x, y, radius), n)


def pair_columns(x, y, radius):
    """:func:`pairs_within_range` over coordinate columns, as two columns.

    ``x`` / ``y`` are finite 1-D coordinate arrays and ``radius`` a
    positive float (callers validate); returns the ``(i, j)`` index
    columns, ``i < j``, in lexicographic order.
    """
    n = len(x)
    if n < 2:
        return _EMPTY_ROWS, _EMPTY_ROWS
    keys = _join_keys(x, y, radius)
    keys.sort()
    return np.divmod(keys, n)


def _expand_runs(owners, lo, hi):
    """``(owner, slot)`` for every slot of the runs ``[lo, hi)``, run by
    run: each run's owner repeated alongside its consecutive slots."""
    counts = hi - lo
    slot = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    slot += np.arange(len(slot))
    return np.repeat(owners, counts), slot


def _join_keys(x, y, radius):
    """Unsorted keys ``i * n + j`` (``i < j``) of every pair in range.

    Each point of the cell-sorted order meets two contiguous runs of it:
    the rest of its own cell plus the next cell up (keys ``k`` and ``k +
    1``), and the three cells of the next column (keys ``k + stride - 1
    .. k + stride + 1``).  Together they join each unordered pair of
    neighboring cells exactly once.  The runs are expanded one block of
    consecutive points at a time, each block holding at most
    :data:`_JOIN_BLOCK` candidates (a point whose runs hold more is a
    block of its own), so the candidate arrays stay cache-sized however
    many points a cell holds.
    """
    n = len(x)
    key, stride = _cell_keys(x, y, radius)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    sx = x[order]
    sy = y[order]
    r2 = radius * radius
    indices = np.arange(n)
    own_lo = indices + 1
    own_hi = np.searchsorted(sorted_key, sorted_key + 1, side="right")
    next_lo = np.searchsorted(sorted_key, sorted_key + (stride - 1), side="left")
    next_hi = np.searchsorted(sorted_key, sorted_key + (stride + 1), side="right")
    counts = own_hi - own_lo
    counts += next_hi - next_lo
    ends = np.cumsum(counts)
    chunks = []
    start = 0
    while start < n:
        base = ends[start] - counts[start]
        stop = max(
            int(np.searchsorted(ends, base + _JOIN_BLOCK, side="right")), start + 1
        )
        for lo, hi in ((own_lo, own_hi), (next_lo, next_hi)):
            left, right = _expand_runs(
                indices[start:stop], lo[start:stop], hi[start:stop]
            )
            close = within_range(sx, sy, left, right, r2)
            a = order.take(left[close])
            b = order.take(right[close])
            pair_keys = np.minimum(a, b)
            pair_keys *= n
            pair_keys += np.maximum(a, b)
            chunks.append(pair_keys)
        start = stop
    return np.concatenate(chunks)


def _block_candidates(rows, row_keys, stride, sorted_key, order):
    """Yield ``(left, right)`` candidate row arrays of the block join.

    Every row of ``rows`` (cell keys ``row_keys``) meets every point of
    the 9 cells around its own: per neighboring column, one contiguous
    run of the globally cell-sorted order, found by two ``searchsorted``.
    Candidates include each row itself; the callers' pairing rules drop
    it.
    """
    for dx in (-1, 0, 1):
        column = row_keys + dx * stride
        lo = np.searchsorted(sorted_key, column - 1, side="left")
        hi = np.searchsorted(sorted_key, column + 1, side="right")
        left, slot = _expand_runs(rows, lo, hi)
        yield left, order.take(slot)


def subset_pair_columns(x, y, rows, radius):
    """Every pair within ``radius`` that has an endpoint among ``rows``.

    The row-subset form of the block join behind :func:`chunk_pairs`:
    the distinct row indices ``rows`` are joined against all points, so
    the cost tracks the subset plus one sort of the ``n`` cell keys.  A
    pair with both endpoints in ``rows`` is kept once.  ``x`` / ``y`` are
    finite coordinate columns and ``radius`` a positive float (callers
    validate); returns ``(i, j)`` index columns, ``i < j``, in
    lexicographic order.
    """
    n = len(x)
    rows = np.asarray(rows, dtype=np.int64)
    if n < 2 or not rows.size:
        return _EMPTY_ROWS, _EMPTY_ROWS
    key, stride = _cell_keys(x, y, radius)
    order = np.argsort(key, kind="stable")
    member = np.zeros(n, dtype=bool)
    member[rows] = True
    r2 = radius * radius
    parts = []
    candidates = _block_candidates(rows, key[rows], stride, key[order], order)
    for left, right in candidates:
        # A pair inside the subset is met from both ends: keep it from
        # its smaller row only.  The row itself is dropped either way.
        keep = (right > left) | ~member[right]
        left = left[keep]
        right = right[keep]
        close = within_range(x, y, left, right, r2)
        left = left[close]
        right = right[close]
        pair_keys = np.minimum(left, right)
        pair_keys *= n
        pair_keys += np.maximum(left, right)
        parts.append(pair_keys)
    keys = np.concatenate(parts)
    keys.sort()
    return np.divmod(keys, n)


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
    x, y = coordinate_columns(positions)
    radius = _validated_radius(radius)
    budget = DEFAULT_CHUNK_PAIRS if max_pairs is None else int(max_pairs)
    if budget < 1:
        raise ConfigurationError(f"max_pairs must be >= 1, got {max_pairs}")
    return _iter_pair_chunks(x, y, radius, budget)


def _iter_pair_chunks(x, y, radius, budget):
    """Generator behind :func:`chunk_pairs` (validation happens eagerly).

    Left endpoints are processed in blocks of ascending original index;
    within a block every candidate ``j > i`` comes out of the block join
    (:func:`_block_candidates`), then is distance-filtered and sorted.
    Blocks ascend in left index, so concatenating the per-block rows
    reproduces the global lexicographic order of the one-shot driver.
    """
    n = len(x)
    if n < 2:
        return
    key, stride = _cell_keys(x, y, radius)
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
        parts = []
        rows = np.arange(start, stop, dtype=np.int64)
        candidates = _block_candidates(rows, key[start:stop], stride, sorted_key, order)
        for left, right in candidates:
            forward = right > left
            left, right = left[forward], right[forward]
            if not left.size:
                continue
            close = within_range(x, y, left, right, r2)
            if close.any():
                pair_keys = left[close] * n
                pair_keys += right[close]
                parts.append(pair_keys)
        if not parts:
            continue
        pairs = _sorted_rows(np.concatenate(parts), n)
        for cut in range(0, len(pairs), budget):
            yield pairs[cut : cut + budget]


def unit_disk_graph(positions, radius, node_ids=None, max_pairs=None):
    """Build the unit-disk :class:`Graph` over ``positions``.

    ``node_ids`` maps point index -> node identifier; defaults to the index
    itself.  Returns ``(graph, positions_by_id)`` where the second element
    is a dict from node id to its ``(x, y)`` position.

    Below ``STREAM_NODE_THRESHOLD`` nodes the whole ``pairs_within_range``
    array feeds ``Graph.from_pair_array`` at once (already canonical, so
    it skips the dedup sort); above it -- or whenever ``max_pairs`` is
    passed -- the :func:`chunk_pairs` stream feeds
    ``Graph.from_pair_chunks`` so peak memory stays bounded by the chunk
    budget.  Both paths produce the same graph: the snapshot that
    densities, elections and traversals read.
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
