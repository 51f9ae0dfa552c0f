"""Delta-based maintenance of unit-disk topologies across mobility windows.

The Section 5 experiments are *dynamic*: nodes move every 2-second window
(or appear/disappear between churn epochs) and the clustering is
re-evaluated each time.  Rebuilding everything from scratch per window --
the full cell-grid pair join, a fresh ``Graph``, a global triangle recount
-- costs O(n + m) regardless of how little actually changed.  This module
makes a window one array pass over its CSR snapshot, with the geometric
work proportional to the *delta*:

* :class:`DynamicUnitDisk` keeps the geometry cell grid alive across
  windows as a skin-padded **candidate list** (the Verlet-list idea from
  molecular dynamics): one join at ``radius + skin`` yields every pair
  that could possibly become an edge while no node has drifted more than
  ``skin / 2`` from its join-time anchor position.  A position update then
  re-evaluates only the candidate pairs incident to nodes that actually
  moved -- one vectorized distance pass -- and emits the **exact** edge
  delta.  When the drift bound trips, or nodes join/depart, the grid is
  re-joined from the live positions and the delta falls out of a sorted
  key set-difference instead.  Either way the resulting edge set is
  bit-identical to a scratch ``pairs_within_range(positions, radius)``
  (both classify with the same ``dx*dx + dy*dy <= radius*radius``
  arithmetic; the candidate list is a superset by the triangle
  inequality, enforced with a small safety margin on the drift bound).

* :class:`DynamicTopology` rebases one live
  :class:`~repro.graph.graph.Graph` onto each window's snapshot
  (:meth:`~repro.graph.graph.Graph.adopt_csr`): no per-edge dict updates,
  and the dict adjacency, when a consumer needs one, is rebuilt lazily in
  the order a fresh build fills it.  Per-row triangle counts live in an
  ``int64`` array and move by one batched delta over the changed edges:
  triangles through removed edges are counted on the old snapshot, those
  through added edges on the new one, each credited once -- through its
  smallest-key changed edge -- to its three corners.  The window's exact
  densities are a read-only :class:`DensityMap` over the degree and
  triangle arrays, whose float image the election engine ranks with
  directly.

The scratch pipeline (``topology_at`` -> ``all_densities``) is the
reference oracle; the property suite drives randomized move/join/leave
sequences through both and asserts equality.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.generators import Topology
from repro.graph.geometry import pairs_within_range
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError

# Identifiers are packed two-per-int64 key for the set-difference delta
# path, so they must fit in 31 bits.
_MAX_ID = 2 ** 31

# Safety margin on the Verlet drift bound: the triangle-inequality
# argument is exact in real arithmetic; this absorbs the ~1 ulp float
# noise of the squared-distance evaluations.
_DRIFT_GUARD = 1e-12

# Expanded-candidate budget of the batched triangle delta: a bulk delta
# (every node teleported) is processed in chunks of at most this many
# candidate corners, bounding peak memory like the CSR triangle kernel.
_CANDIDATE_BUDGET = 2_000_000

# Re-anchoring drifted nodes cell-by-cell beats a full grid re-join only
# while few nodes drifted; past this fraction of the population the whole
# grid is re-joined instead.
_REANCHOR_FRACTION = 8

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
_EMPTY_PAIRS.flags.writeable = False


@dataclass(frozen=True)
class EdgeDelta:
    """Exact edge difference between two topology snapshots.

    ``added`` / ``removed`` are ``(k, 2)`` int64 arrays of node
    *identifiers* with each row canonical (``lo < hi``) and rows in
    lexicographic order, so a delta is a deterministic function of the
    two snapshots alone.
    """

    added: np.ndarray
    removed: np.ndarray

    def __bool__(self):
        return bool(len(self.added) or len(self.removed))

    @property
    def size(self):
        """Total number of changed edges."""
        return len(self.added) + len(self.removed)

    @classmethod
    def empty(cls):
        return cls(added=_EMPTY_PAIRS, removed=_EMPTY_PAIRS)


def _id_keys(ids, index_pairs):
    """Sorted ``int64`` keys ``lo << 32 | hi`` of index pairs, in
    identifier space (one scalar sort instead of a two-key lexsort)."""
    a = ids[index_pairs[:, 0]]
    b = ids[index_pairs[:, 1]]
    keys = (np.minimum(a, b) << 32) | np.maximum(a, b)
    keys.sort()
    return keys


def _decode_id_keys(keys):
    if not len(keys):
        return _EMPTY_PAIRS
    return np.column_stack((keys >> 32, keys & 0xFFFFFFFF))


def _canonical_id_pairs(ids, index_pairs):
    """Index pairs -> canonical, lexicographically sorted identifier pairs."""
    return _decode_id_keys(_id_keys(ids, index_pairs))


class DynamicUnitDisk:
    """Unit-disk edge maintenance over moving points with exact deltas.

    ``positions`` is the ``(n, 2)`` float array of the initial deployment;
    ``ids`` maps point index -> integer node identifier (default: the
    index itself).  ``skin`` is the candidate-list padding in distance
    units (default ``radius / 2``): larger skins survive more windows
    between grid re-joins but evaluate more candidate pairs per window.
    """

    def __init__(self, positions, radius, ids=None, skin=None):
        positions = np.array(positions, dtype=float).reshape(-1, 2)
        if radius is None:
            raise ConfigurationError(
                "dynamic unit-disk maintenance needs a transmission radius; "
                "this topology has radius=None (a combinatorial generator "
                "or a file without one) -- mobility and dynamics only apply "
                "to geometric topologies"
            )
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        if skin is None:
            skin = 0.5 * radius
        if skin < 0:
            raise ConfigurationError(f"skin must be non-negative, got {skin}")
        n = len(positions)
        if ids is None:
            ids_list = list(range(n))
        else:
            ids_list = [int(x) for x in ids]
            if len(ids_list) != n:
                raise ConfigurationError(
                    f"ids has {len(ids_list)} entries for {n} positions")
        self._check_ids(ids_list)
        self.radius = float(radius)
        self.skin = float(skin)
        self._r2 = self.radius * self.radius
        self._drift2 = max(0.5 * self.skin - _DRIFT_GUARD, 0.0) ** 2
        self._ids_list = ids_list
        self._ids = np.array(ids_list, dtype=np.int64)
        self._pos = positions
        self._pos_dict = None
        self._rejoin()

    @staticmethod
    def _check_ids(ids_list):
        if len(set(ids_list)) != len(ids_list):
            raise ConfigurationError("node identifiers must be unique")
        for x in ids_list:
            if not 0 <= x < _MAX_ID:
                raise ConfigurationError(
                    f"identifiers must lie in [0, 2**31), got {x}")

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    def __len__(self):
        return len(self._ids_list)

    @property
    def ids(self):
        """Node identifiers in index order (the graph's insertion order)."""
        return list(self._ids_list)

    def edge_count(self):
        """Number of current unit-disk edges."""
        return int(self._mask.sum())

    def edge_index_pairs(self):
        """Current edges as ``(m, 2)`` index pairs with ``i < j``."""
        return self._cand[self._mask]

    def snapshot(self):
        """A fresh CSR snapshot of the current edge set.

        Built straight from the maintained candidate arrays with
        :meth:`CSRAdjacency.from_pairs` -- one key sort, no per-edge
        Python -- and identical to ``Graph.to_csr()`` over the same
        adjacency (same ids order, rows sorted ascending).
        """
        pairs = self.edge_index_pairs()
        return CSRAdjacency.from_pairs(pairs[:, 0], pairs[:, 1],
                                       self._ids_list)

    def positions_by_id(self):
        """``dict[id, (x, y)]`` of the current positions.

        The dict is maintained incrementally across :meth:`move` calls
        (only movers' entries are rewritten), so per-window cost tracks
        the number of movers, not the population.  Callers must treat
        the returned dict as read-only; ``Topology`` copies it.
        """
        if self._pos_dict is None:
            self._pos_dict = {node: (float(x), float(y))
                              for node, (x, y) in zip(self._ids_list,
                                                      self._pos)}
        return self._pos_dict

    # ------------------------------------------------------------------
    # candidate list
    # ------------------------------------------------------------------

    def _rejoin(self):
        """Re-join the cell grid at ``radius + skin`` from live positions."""
        self._anchor = self._pos.copy()
        self._grid = None
        if len(self._pos) >= 2:
            self._cand = pairs_within_range(self._pos,
                                            self.radius + self.skin)
        else:
            self._cand = _EMPTY_PAIRS
        if len(self._cand):
            diff = self._pos[self._cand[:, 0]] - self._pos[self._cand[:, 1]]
            self._mask = np.einsum("ij,ij->i", diff, diff) <= self._r2
        else:
            self._mask = np.zeros(0, dtype=bool)

    def _ensure_grid(self):
        """Cell buckets over the *anchor* positions, built on first use.

        The candidate invariant lives in anchor space: a non-candidate
        pair has anchor distance > ``radius + skin``, so while every node
        sits within ``skin/2`` of its own anchor no non-candidate pair
        can come within ``radius``.  Re-anchoring a node therefore means
        re-joining it against the other nodes' *anchors* -- the 9 cells
        around its new anchor cell -- not their live positions.
        """
        if self._grid is None:
            cell_size = self.radius + self.skin
            cells = np.floor(self._anchor / cell_size).astype(np.int64)
            grid = {}
            for index, (cx, cy) in enumerate(cells.tolist()):
                grid.setdefault((cx, cy), []).append(index)
            self._grid = grid
        return self._grid

    def _reanchor(self, drifted):
        """Re-anchor ``drifted`` rows against the live grid, in place.

        Drops every candidate pair incident to a drifted node, moves the
        nodes to their new anchor cells, and re-joins each against the 9
        surrounding cells.  Returns ``(kept, old_pairs, new_pairs,
        new_mask)``: the keep-mask over the previous candidate rows plus
        the dropped/re-discovered D-incident pairs with the fresh edge
        classification of the latter.
        """
        grid = self._ensure_grid()
        cell_size = self.radius + self.skin
        old_cells = np.floor(self._anchor[drifted] / cell_size).astype(
            np.int64)
        self._anchor[drifted] = self._pos[drifted]
        new_cells = np.floor(self._anchor[drifted] / cell_size).astype(
            np.int64)
        for index, old, new in zip(drifted.tolist(), old_cells.tolist(),
                                   new_cells.tolist()):
            old = tuple(old)
            new = tuple(new)
            if old != new:
                grid[old].remove(index)
                if not grid[old]:
                    del grid[old]
                grid.setdefault(new, []).append(index)
        in_drifted = np.zeros(len(self._pos), dtype=bool)
        in_drifted[drifted] = True
        kept = ~(in_drifted[self._cand[:, 0]] | in_drifted[self._cand[:, 1]]) \
            if len(self._cand) else np.zeros(0, dtype=bool)
        old_pairs = self._cand[~kept] if len(self._cand) else _EMPTY_PAIRS
        rc2 = cell_size * cell_size
        anchor = self._anchor
        chunks = []
        for index, (cx, cy) in zip(drifted.tolist(), new_cells.tolist()):
            partners = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    partners.extend(grid.get((cx + dx, cy + dy), ()))
            partners = np.array(partners, dtype=np.int64)
            partners = partners[partners != index]
            if not partners.size:
                continue
            diff = anchor[partners] - anchor[index]
            close = np.einsum("ij,ij->i", diff, diff) <= rc2
            partners = partners[close]
            if partners.size:
                chunks.append(np.column_stack(
                    (np.minimum(partners, index),
                     np.maximum(partners, index))))
        if chunks:
            pairs = np.concatenate(chunks)
            # Two re-anchored endpoints discover their pair twice.
            n = len(self._pos)
            keys = np.unique(pairs[:, 0] * n + pairs[:, 1])
            new_pairs = np.column_stack((keys // n, keys % n))
            diff = self._pos[new_pairs[:, 0]] - self._pos[new_pairs[:, 1]]
            new_mask = np.einsum("ij,ij->i", diff, diff) <= self._r2
        else:
            new_pairs = _EMPTY_PAIRS
            new_mask = np.zeros(0, dtype=bool)
        return kept, old_pairs, new_pairs, new_mask

    def _edge_keys(self):
        """Sorted int64 keys of the current edges, in identifier space."""
        return _id_keys(self._ids, self.edge_index_pairs())

    @staticmethod
    def _diff_keys(old_keys, new_keys):
        """Delta between two sorted key sets, decoded to identifier pairs."""
        return EdgeDelta(
            added=_decode_id_keys(np.setdiff1d(new_keys, old_keys,
                                               assume_unique=True)),
            removed=_decode_id_keys(np.setdiff1d(old_keys, new_keys,
                                                 assume_unique=True)))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def move(self, positions):
        """Adopt new positions for the *same* node set; return the delta.

        ``positions`` is the full ``(n, 2)`` array aligned with
        :attr:`ids` (the shape every mobility model maintains).  Three
        regimes, cheapest first: while every node sits within ``skin/2``
        of its anchor, only candidate pairs incident to actual movers are
        re-evaluated; when a few nodes drifted past the bound they are
        re-anchored cell-by-cell against the live grid; when most of the
        population drifted, the whole grid is re-joined.
        """
        positions = np.asarray(positions, dtype=float)
        if positions.shape != self._pos.shape:
            raise ConfigurationError(
                "move requires positions for the unchanged node set "
                f"(expected shape {self._pos.shape}, got {positions.shape}); "
                "use apply_churn for arrivals/departures")
        moved = np.flatnonzero((positions != self._pos).any(axis=1))
        if not moved.size:
            return EdgeDelta.empty()
        self._pos = positions.copy()
        if self._pos_dict is not None:
            self._pos_dict.update(zip(self._ids[moved].tolist(),
                                      zip(positions[moved, 0].tolist(),
                                          positions[moved, 1].tolist())))
        disp2 = ((self._pos - self._anchor) ** 2).sum(axis=1)
        drifted = np.flatnonzero(disp2 >= self._drift2)
        if not drifted.size:
            added, removed = self._update_mask(self._cand, self._mask, moved)
            return EdgeDelta(added=_canonical_id_pairs(self._ids, added),
                             removed=_canonical_id_pairs(self._ids, removed))
        n = len(self._pos)
        if drifted.size * _REANCHOR_FRACTION > n or n < 2:
            old_keys = self._edge_keys()
            self._rejoin()
            return self._diff_keys(old_keys, self._edge_keys())
        kept, old_pairs, new_pairs, new_mask = self._reanchor(drifted)
        old_edges = old_pairs[self._mask[~kept]] if len(self._mask) \
            else _EMPTY_PAIRS
        cand = self._cand[kept]
        mask = self._mask[kept]
        added_kept, removed_kept = self._update_mask(cand, mask, moved)
        self._cand = np.concatenate((cand, new_pairs))
        self._mask = np.concatenate((mask, new_mask))
        # Delta among the re-anchored pairs: old vs new edge key sets.
        old_keys = self._index_keys(old_edges)
        new_keys = self._index_keys(new_pairs[new_mask])
        added_re = self._decode_index_keys(
            np.setdiff1d(new_keys, old_keys, assume_unique=True))
        removed_re = self._decode_index_keys(
            np.setdiff1d(old_keys, new_keys, assume_unique=True))
        return EdgeDelta(
            added=_canonical_id_pairs(
                self._ids, np.concatenate((added_kept, added_re))),
            removed=_canonical_id_pairs(
                self._ids, np.concatenate((removed_kept, removed_re))))

    def _update_mask(self, cand, mask, moved):
        """Re-evaluate ``cand`` rows incident to ``moved`` in place.

        Returns ``(added, removed)`` index-pair arrays of rows whose edge
        classification flipped; ``mask`` is updated in place.
        """
        if not len(cand):
            return _EMPTY_PAIRS, _EMPTY_PAIRS
        moved_mask = np.zeros(len(self._pos), dtype=bool)
        moved_mask[moved] = True
        touched = np.flatnonzero(moved_mask[cand[:, 0]]
                                 | moved_mask[cand[:, 1]])
        if not touched.size:
            return _EMPTY_PAIRS, _EMPTY_PAIRS
        diff = self._pos[cand[touched, 0]] - self._pos[cand[touched, 1]]
        inside = np.einsum("ij,ij->i", diff, diff) <= self._r2
        before = mask[touched]
        mask[touched] = inside
        return (cand[touched[inside & ~before]],
                cand[touched[before & ~inside]])

    def _index_keys(self, index_pairs):
        """Sorted scalar keys of canonical (``i < j``) index pairs."""
        if not len(index_pairs):
            return np.empty(0, dtype=np.int64)
        n = len(self._pos)
        keys = index_pairs[:, 0] * n + index_pairs[:, 1]
        keys.sort()
        return keys

    def _decode_index_keys(self, keys):
        if not len(keys):
            return _EMPTY_PAIRS
        n = len(self._pos)
        return np.column_stack((keys // n, keys % n))

    def apply_churn(self, departed=(), arrivals=()):
        """Remove ``departed`` identifiers, add ``arrivals``; return the delta.

        ``arrivals`` is a sequence of ``(id, (x, y))`` pairs.  Surviving
        nodes keep their index order and arrivals append after them, which
        is exactly the insertion order a maintained :class:`Graph`
        produces -- and, for monotonically increasing identifiers (the
        :class:`~repro.mobility.churn.ChurnProcess` discipline), also the
        sorted order the scratch path uses.  Churn re-joins the grid, so
        the delta covers every edge incident to a departure or arrival.
        """
        departed = [int(x) for x in departed]
        arrivals = [(int(node), position) for node, position in arrivals]
        if not departed and not arrivals:
            return EdgeDelta.empty()
        index_of = {node: i for i, node in enumerate(self._ids_list)}
        keep = np.ones(len(self._ids_list), dtype=bool)
        for node in departed:
            if node not in index_of:
                raise ConfigurationError(f"departed node {node!r} unknown")
            keep[index_of[node]] = False
        new_ids = [node for node, kept in zip(self._ids_list, keep) if kept]
        for node, _position in arrivals:
            if node in index_of:
                raise ConfigurationError(f"arrival {node!r} already present")
            new_ids.append(node)
        self._check_ids(new_ids)
        arrival_pos = np.array([position for _node, position in arrivals],
                               dtype=float).reshape(-1, 2)
        old_keys = self._edge_keys()
        self._ids_list = new_ids
        self._ids = np.array(new_ids, dtype=np.int64)
        self._pos = np.concatenate((self._pos[keep], arrival_pos))
        self._pos_dict = None
        self._rejoin()
        return self._diff_keys(old_keys, self._edge_keys())

    def __repr__(self):
        return (f"DynamicUnitDisk(n={len(self)}, m={self.edge_count()}, "
                f"radius={self.radius}, skin={self.skin})")


def _row_pairs(ids, pairs):
    """Identifier pairs -> canonical row pairs ``(lo, hi)``, ``lo < hi``,
    over the snapshot row order ``ids`` (an ``int64`` array)."""
    sorter = np.argsort(ids, kind="stable")
    rows = sorter[np.searchsorted(ids, pairs, sorter=sorter)]
    return (np.minimum(rows[:, 0], rows[:, 1]),
            np.maximum(rows[:, 0], rows[:, 1]))


def triangle_credits(csr, lo, hi):
    """Per-row corner counts of ``csr``'s triangles through changed edges.

    ``lo`` / ``hi`` are the changed edges as row pairs (``lo < hi``), all
    present in ``csr``.  Each edge expands its endpoint with the shorter
    neighbor list; a candidate corner ``w`` closes a triangle iff the
    other endpoint and ``w`` are adjacent -- one ``searchsorted`` over the
    snapshot's sorted :meth:`~repro.graph.csr.CSRAdjacency.edge_keys`,
    which also locates that edge's CSR entry.  A triangle holding several
    changed edges is found through each of them and credited once,
    through the one with the smallest key ``lo * n + hi``, to each of its
    three corners; whether its other two edges changed is read off a
    per-entry flag at the two entries the probe touched.
    """
    n = len(csr)
    credits = np.zeros(n, dtype=np.int64)
    if not lo.size:
        return credits
    lo = lo.astype(np.int64)
    hi = hi.astype(np.int64)
    table = csr.edge_keys()
    changed = np.zeros(table.size, dtype=bool)
    changed[np.searchsorted(table, lo * n + hi)] = True
    changed[np.searchsorted(table, hi * n + lo)] = True
    indptr = csr.indptr.astype(np.int64)
    degrees = csr.degrees()
    swap = degrees[hi] < degrees[lo]
    expand = np.where(swap, hi, lo)
    probe_row = np.where(swap, lo, hi)
    counts = degrees[expand]
    ends = np.cumsum(counts)
    last = table.size - 1
    start = 0
    while start < lo.size:
        base = int(ends[start] - counts[start])
        stop = max(int(np.searchsorted(ends, base + _CANDIDATE_BUDGET,
                                       side="right")), start + 1)
        size = counts[start:stop]
        total = int(size.sum())
        if total:
            edge = np.repeat(np.arange(start, stop), size)
            # CSR entry of (expand, w) for every candidate corner w.
            at = (np.repeat(indptr[expand[start:stop]], size)
                  + np.arange(total, dtype=np.int64)
                  - np.repeat(ends[start:stop] - size - base, size))
            w = csr.indices[at].astype(np.int64)
            probe = probe_row[edge] * n + w
            pos = np.minimum(np.searchsorted(table, probe), last)
            closed = np.flatnonzero(table[pos] == probe)
            edge = edge[closed]
            w = w[closed]
            key = lo[edge] * n + hi[edge]
            a = expand[edge]
            b = probe_row[edge]
            earlier = ((changed[at[closed]]
                        & (np.minimum(a, w) * n + np.maximum(a, w) < key))
                       | (changed[pos[closed]]
                          & (np.minimum(b, w) * n + np.maximum(b, w) < key)))
            first = ~earlier
            corners = np.concatenate((a[first], b[first], w[first]))
            credits += np.bincount(corners, minlength=n)
        start = stop
    return credits


class DensityMap(Mapping):
    """Exact Definition-1 densities of one window, as a read-only mapping.

    A view over the window's row-ordered ``ids`` and its ``int64``
    ``degrees`` and ``triangles`` arrays.  A lookup builds
    ``Fraction(deg + tri, deg)`` -- ``Fraction(0)`` for an isolated node
    -- from the same machine integers as ``all_densities(graph,
    exact=True)``, so the two compare equal from either side of ``==``;
    iteration follows ``ids``.  :attr:`float_image` is
    ``density_float_image(degrees, triangles)``: each entry is the
    correctly rounded quotient of the same two integers, hence bit for
    bit ``float(self[node])``, and the election engine ranks with it
    directly.
    """

    def __init__(self, ids, degrees, triangles):
        self.ids = tuple(ids)
        self.degrees = degrees
        self.triangles = triangles
        self._index_of = None
        self._float_image = None

    def __getitem__(self, node):
        if self._index_of is None:
            self._index_of = {key: i for i, key in enumerate(self.ids)}
        row = self._index_of[node]
        deg = int(self.degrees[row])
        if not deg:
            return Fraction(0)
        return Fraction(deg + int(self.triangles[row]), deg)

    def __iter__(self):
        return iter(self.ids)

    def __len__(self):
        return len(self.ids)

    @property
    def float_image(self):
        """``float64`` densities in ``ids`` order (read-only)."""
        if self._float_image is None:
            # Deferred import: repro.clustering reaches back into
            # repro.graph at package level.
            from repro.clustering.density import density_float_image

            image = density_float_image(self.degrees, self.triangles)
            image.flags.writeable = False
            self._float_image = image
        return self._float_image

    def __reduce__(self):
        return (DensityMap, (self.ids, self.degrees, self.triangles))

    def __repr__(self):
        return f"DensityMap(n={len(self.ids)})"


@dataclass(frozen=True)
class WindowUpdate:
    """Everything one window of dynamics produced.

    ``topology`` wraps the *live* graph (rebased again by the next window
    -- read metrics within the window, as the experiment loops do);
    ``delta`` is the exact edge difference from the previous window;
    ``density_changed`` the identifiers whose degree or triangle count
    changed (a superset of those whose exact density changed).
    ``densities`` is this window's immutable :class:`DensityMap`, or
    ``None`` when density tracking is off -- ``density_changed`` is then
    ``None`` as well.
    """

    topology: Topology
    delta: EdgeDelta
    density_changed: frozenset
    densities: Mapping = None


class DynamicTopology:
    """A unit-disk :class:`Topology` kept current by exact edge deltas.

    Owns the :class:`DynamicUnitDisk`, a live :class:`Graph` (the same
    object across all windows, rebased onto each window's snapshot, so
    simulators and caches keyed on it keep working), the per-row
    ``triangles`` array and the window's :class:`DensityMap`.  Every
    update leaves them in the state a scratch rebuild (``topology_at`` +
    ``all_densities(exact=True)``) would produce, bit for bit; only the
    cost differs.  ``track_densities=False`` skips the triangles and the
    densities for consumers that never read them (the baseline engines).
    """

    def __init__(self, positions, radius, ids=None, skin=None,
                 track_densities=True):
        self._disk = DynamicUnitDisk(positions, radius, ids=ids, skin=skin)
        self.radius = float(radius)
        self.graph = Graph.from_pair_array(self._disk.edge_index_pairs(),
                                           self._disk.ids)
        self.triangles = None
        self.densities = None
        if track_densities:
            csr = self.graph.to_csr()
            self.triangles = csr.triangle_counts()
            self.densities = DensityMap(csr.ids, csr.degrees(),
                                        self.triangles)
        self.topology = self._wrap()

    def _wrap(self):
        return Topology(self.graph, positions=self._disk.positions_by_id(),
                        radius=self.radius)

    def __len__(self):
        return len(self.graph)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def move(self, positions):
        """One mobility window: adopt new positions, return the update."""
        delta = self._disk.move(positions)
        changed = self._rebase(delta, self._disk._ids) if delta \
            else frozenset()
        return self._update(delta, changed)

    def apply_churn(self, departed=(), arrivals=()):
        """One churn epoch: departures vanish with their edges, arrivals
        boot fresh; returns the update."""
        departed = [int(x) for x in departed]
        arrivals = [(int(node), position) for node, position in arrivals]
        old_ids = self._disk._ids
        delta = self._disk.apply_churn(departed, arrivals)
        if departed or arrivals:
            changed = self._rebase(delta, old_ids,
                                   keep=~np.isin(old_ids, departed))
        else:
            changed = frozenset()
        return self._update(delta, changed)

    def _update(self, delta, changed):
        self.topology = self._wrap()
        return WindowUpdate(
            topology=self.topology, delta=delta,
            density_changed=None if self.triangles is None else changed,
            densities=self.densities)

    def _rebase(self, delta, old_ids, keep=None):
        """Install the disk's snapshot and move the triangle counts.

        ``old_ids`` are the previous snapshot's row identifiers and
        ``keep`` masks its surviving rows (churn): survivors keep their
        order and arrivals append, so the survivors' rows come first in
        the new snapshot.  Returns the identifiers whose degree or
        triangle count changed, arrivals included.
        """
        old = self.graph.to_csr()
        new = self._disk.snapshot()
        survivors = len(old) if keep is None else int(keep.sum())
        self.graph.adopt_csr(new, added=len(delta.added),
                             removed=len(delta.removed),
                             joined=len(new) - survivors,
                             left=len(old) - survivors)
        if self.triangles is None:
            return None
        old_tri = self.triangles
        old_deg = old.degrees()
        tri = old_tri - triangle_credits(old,
                                         *_row_pairs(old_ids, delta.removed))
        if keep is not None:
            tri, old_tri, old_deg = tri[keep], old_tri[keep], old_deg[keep]
        tri = np.concatenate(
            (tri, np.zeros(len(new) - survivors, dtype=np.int64)))
        tri += triangle_credits(new, *_row_pairs(self._disk._ids,
                                                 delta.added))
        tri.flags.writeable = False
        degrees = new.degrees()
        changed = np.ones(len(new), dtype=bool)
        changed[:survivors] = ((degrees[:survivors] != old_deg)
                               | (tri[:survivors] != old_tri))
        self.triangles = tri
        self.densities = DensityMap(new.ids, degrees, tri)
        return frozenset(self._disk._ids[changed].tolist())

    def __repr__(self):
        return (f"DynamicTopology(n={len(self.graph)}, "
                f"m={self.graph.edge_count()}, radius={self.radius})")
