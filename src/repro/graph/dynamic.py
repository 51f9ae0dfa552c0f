"""Delta-based maintenance of unit-disk topologies across mobility windows.

The Section 5 experiments are *dynamic*: nodes move every 2-second window
(or appear/disappear between churn epochs) and the clustering is
re-evaluated each time.  Rebuilding everything from scratch per window --
the full cell-grid pair join, a fresh ``Graph``, a global triangle recount
-- costs O(n + m) regardless of how little actually changed.  This module
makes a window a few passes over 1-D arrays, with the geometric work
proportional to the *delta*:

* :class:`DynamicUnitDisk` keeps positions as ``x`` / ``y`` columns and a
  skin-padded **candidate list** (the Verlet-list idea from molecular
  dynamics) as two index columns plus an edge mask: one join at ``radius
  + skin`` yields every pair that could become an edge while no node has
  drifted more than ``skin / 2`` from its join-time anchor position.  A
  position update re-classifies only the candidate pairs incident to
  nodes that moved (all of them, with no mover mask, when every node
  moved).  Nodes that drifted past the bound are re-anchored by
  the geometry module's row-subset join
  (:func:`~repro.graph.geometry.subset_pair_columns`) against every
  anchor; when most of the population drifted, the whole list is
  re-joined.  Every pair is classified by
  :func:`~repro.graph.geometry.within_range`, the arithmetic of a scratch
  ``pairs_within_range(positions, radius)``, so the edge set is
  bit-identical to it (the candidate list is a superset by the triangle
  inequality, enforced with a small safety margin on the drift bound).

* A pair is therefore an edge of a window iff it is within range under
  that window's positions, and the deltas are read off distances rather
  than set differences: an added edge is an edge now that was out of
  range under the previous positions, a removed edge the reverse.  The
  disk computes each delta in row space; the identifier-space
  :class:`EdgeDelta` is built once, for the caller.

* :class:`DynamicTopology` rebases one live
  :class:`~repro.graph.graph.Graph` onto each window's snapshot
  (:meth:`~repro.graph.graph.Graph.adopt_csr`): no per-edge updates, and
  the rebased graph equals a fresh build of the window.  Per-row
  triangle counts live in an ``int64`` array and move by one batched
  delta over the changed edges
  (:func:`triangle_credits`): triangles through removed edges are counted
  on the old snapshot, those through added edges on the new one, each
  credited once -- through its smallest-key changed edge -- to its three
  corners.  The window's exact densities are a read-only
  :class:`DensityMap` over the degree and triangle arrays, whose float
  image the election engine ranks with directly.  It keeps one
  :class:`~repro.graph.generators.Topology` per node set: a move hands
  back the same object, whose positions are the window's read-only
  :class:`PositionMap` over the disk's coordinate columns (no dict is
  copied or validated per window); churn builds a new one.

The scratch pipeline (``topology_at`` -> ``all_densities``) is the
reference oracle; the property suite drives randomized move/join/leave
sequences through both and asserts equality.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.generators import Topology
from repro.graph.geometry import (
    coordinate_columns,
    pair_columns,
    subset_pair_columns,
    within_range,
)
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError

# Identifiers are packed two-per-int64 key to sort a delta's identifier
# pairs, so they must fit in 31 bits.
_MAX_ID = 2 ** 31

# Safety margin on the Verlet drift bound: the triangle-inequality
# argument is exact in real arithmetic; this absorbs the ~1 ulp float
# noise of the squared-distance evaluations.
_DRIFT_GUARD = 1e-12

# Expanded-candidate budget of the batched triangle delta: a bulk delta
# (every node teleported) is processed in chunks of at most this many
# candidate corners, bounding peak memory like the CSR triangle kernel.
_CANDIDATE_BUDGET = 2_000_000

# Re-anchoring drifted nodes through the row-subset join beats a full
# re-join only while few nodes drifted; past this fraction of the
# population the whole candidate list is re-joined instead.
_REANCHOR_FRACTION = 8

_EMPTY_PAIRS = np.empty((0, 2), dtype=np.int64)
_EMPTY_PAIRS.flags.writeable = False

_EMPTY_ROWS = np.empty(0, dtype=np.int64)
_EMPTY_ROWS.flags.writeable = False

# An empty row-space edge list: ``(lo, hi)`` columns.
_NO_ROWS = (_EMPTY_ROWS, _EMPTY_ROWS)


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


def _canonical_id_pairs(ids, lo, hi):
    """Row pairs -> canonical, lexicographically sorted identifier pairs.

    One sort of the scalar keys ``min << 32 | max`` instead of a two-key
    lexsort.
    """
    if not len(lo):
        return _EMPTY_PAIRS
    a = ids[lo]
    b = ids[hi]
    keys = np.minimum(a, b)
    keys <<= 32
    keys |= np.maximum(a, b)
    keys.sort()
    return np.column_stack((keys >> 32, keys & 0xFFFFFFFF))


def _edge_delta(added, removed, new_ids, old_ids):
    """The identifier-space :class:`EdgeDelta` of a row-space delta:
    ``added`` rows of the new snapshot, ``removed`` rows of the old."""
    return EdgeDelta(added=_canonical_id_pairs(new_ids, *added),
                     removed=_canonical_id_pairs(old_ids, *removed))


def _outside(rows, coords, r2):
    """The ``(lo, hi)`` row pairs out of range under ``coords``."""
    lo, hi = rows
    out = np.flatnonzero(~within_range(*coords, lo, hi, r2))
    return lo.take(out), hi.take(out)


def _join_rows(first, second):
    return (np.concatenate((first[0], second[0])),
            np.concatenate((first[1], second[1])))


class DynamicUnitDisk:
    """Unit-disk edge maintenance over moving points with exact deltas.

    ``positions`` is the ``(n, 2)`` float array of the initial deployment;
    ``ids`` maps point index -> integer node identifier (default: the
    index itself).  ``skin`` is the candidate-list padding in distance
    units (default ``radius / 2``): larger skins survive more windows
    between re-anchors but evaluate more candidate pairs per window.

    Every array is 1-D: the positions and the anchors are ``x`` / ``y``
    columns, and the candidate list is two index columns ``(i, j)``,
    ``i < j``, plus a boolean edge mask over them.  Updates replace the
    position columns rather than writing into them, so a caller holding
    :attr:`coordinates` keeps the previous window's.
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
        if not math.isfinite(radius):
            raise ConfigurationError(f"radius must be finite, got {radius}")
        if radius <= 0:
            raise ConfigurationError(f"radius must be positive, got {radius}")
        if skin is None:
            skin = 0.5 * radius
        if not math.isfinite(skin):
            raise ConfigurationError(f"skin must be finite, got {skin}")
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
        self._x, self._y = coordinate_columns(positions)
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
        """Node identifiers in index order (the graph's row order)."""
        return list(self._ids_list)

    @property
    def coordinates(self):
        """The ``(x, y)`` columns of the current positions, in index
        order; read-only by contract (updates install new arrays)."""
        return self._x, self._y

    def edge_count(self):
        """Number of current unit-disk edges."""
        return int(self._mask.sum())

    def _edges(self):
        """Current edges as ``(lo, hi)`` index columns, ``lo < hi``."""
        rows = np.flatnonzero(self._mask)
        return self._ci.take(rows), self._cj.take(rows)

    def edge_index_pairs(self):
        """Current edges as ``(m, 2)`` index pairs with ``i < j``."""
        return np.column_stack(self._edges())

    def snapshot(self):
        """A fresh CSR snapshot of the current edge set.

        Built straight from the maintained candidate columns with
        :meth:`CSRAdjacency.from_pairs` -- one key sort, no per-edge
        Python -- and identical to ``Graph.to_csr()`` over the same
        adjacency (same ids order, rows sorted ascending).
        """
        return CSRAdjacency.from_pairs(*self._edges(), self._ids_list)

    # ------------------------------------------------------------------
    # candidate list
    # ------------------------------------------------------------------

    def _rejoin(self):
        """Re-join the candidate list at ``radius + skin`` from live
        positions, which become every node's anchor."""
        self._ax = self._x.copy()
        self._ay = self._y.copy()
        self._ci, self._cj = pair_columns(self._x, self._y,
                                          self.radius + self.skin)
        self._mask = within_range(self._x, self._y, self._ci, self._cj,
                                  self._r2)

    def _reclassify(self, moved, ci, cj, mask):
        """Re-classify the candidate rows incident to ``moved``.

        ``mask`` (over ``ci`` / ``cj``) is updated in place; returns the
        ``(added, removed)`` row pairs whose classification flipped.
        ``moved`` holds distinct rows; when it holds every row, every
        candidate pair is touched and is classified without a mover mask.
        """
        if not ci.size:
            return _NO_ROWS, _NO_ROWS
        if moved.size == len(self._x):
            lo, hi = ci, cj
            inside = within_range(self._x, self._y, lo, hi, self._r2)
            flip = inside != mask
            mask[:] = inside
        else:
            hit = np.zeros(len(self._x), dtype=bool)
            hit[moved] = True
            touched = np.flatnonzero(hit.take(ci) | hit.take(cj))
            lo = ci.take(touched)
            hi = cj.take(touched)
            inside = within_range(self._x, self._y, lo, hi, self._r2)
            flip = inside != mask.take(touched)
            mask[touched] = inside
        flip = np.flatnonzero(flip)
        lo, hi, inside = lo.take(flip), hi.take(flip), inside.take(flip)
        return (lo[inside], hi[inside]), (lo[~inside], hi[~inside])

    def _reanchor(self, drifted, moved, before):
        """Re-anchor ``drifted`` rows: one row-subset join of their new
        anchors against every anchor replaces their candidate pairs.

        The invariant lives in anchor space: a non-candidate pair has
        anchor distance > ``radius + skin``, so while every node sits
        within ``skin/2`` of its own anchor no non-candidate pair can come
        within ``radius``.  Returns the ``(added, removed)`` row pairs of
        the window; ``before`` are the previous position columns.
        """
        hit = np.zeros(len(self._x), dtype=bool)
        hit[drifted] = True
        dropped = hit.take(self._ci) | hit.take(self._cj)
        gone = np.flatnonzero(dropped & self._mask)
        old = (self._ci.take(gone), self._cj.take(gone))
        kept = np.flatnonzero(~dropped)
        ci, cj = self._ci.take(kept), self._cj.take(kept)
        mask = self._mask.take(kept)
        added, removed = self._reclassify(moved, ci, cj, mask)
        self._ax[drifted] = self._x[drifted]
        self._ay[drifted] = self._y[drifted]
        ni, nj = subset_pair_columns(self._ax, self._ay, drifted,
                                     self.radius + self.skin)
        inside = within_range(self._x, self._y, ni, nj, self._r2)
        self._ci = np.concatenate((ci, ni))
        self._cj = np.concatenate((cj, nj))
        self._mask = np.concatenate((mask, inside))
        new = (ni[inside], nj[inside])
        return (_join_rows(added, _outside(new, before, self._r2)),
                _join_rows(removed, _outside(old, self.coordinates,
                                             self._r2)))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def move(self, positions):
        """Adopt new positions for the *same* node set; return the delta.

        ``positions`` is the full ``(n, 2)`` array aligned with
        :attr:`ids` (the shape every mobility model maintains).  Three
        regimes, cheapest first: while every node sits within ``skin/2``
        of its anchor, only candidate pairs incident to actual movers are
        re-classified; when a few nodes drifted past the bound they are
        re-anchored through one row-subset join; when most of the
        population drifted, the whole candidate list is re-joined.
        """
        added, removed = self._move_rows(positions)
        return _edge_delta(added, removed, self._ids, self._ids)

    def _move_rows(self, positions):
        """:meth:`move` in row space: the ``(added, removed)`` row pairs."""
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (len(self._x), 2):
            raise ConfigurationError(
                "move requires positions for the unchanged node set "
                f"(expected shape {(len(self._x), 2)}, got "
                f"{positions.shape}); use apply_churn for "
                "arrivals/departures")
        x, y = coordinate_columns(positions)
        moved = np.flatnonzero((x != self._x) | (y != self._y))
        if not moved.size:
            return _NO_ROWS, _NO_ROWS
        before = self.coordinates
        self._x, self._y = x, y
        dx = x - self._ax
        dy = y - self._ay
        dx *= dx
        dy *= dy
        dx += dy
        drifted = np.flatnonzero(dx >= self._drift2)
        if not drifted.size:
            return self._reclassify(moved, self._ci, self._cj, self._mask)
        if drifted.size * _REANCHOR_FRACTION <= len(x):
            return self._reanchor(drifted, moved, before)
        old = self._edges()
        self._rejoin()
        return (_outside(self._edges(), before, self._r2),
                _outside(old, self.coordinates, self._r2))

    def apply_churn(self, departed=(), arrivals=()):
        """Remove ``departed`` identifiers, add ``arrivals``; return the delta.

        ``arrivals`` is a sequence of ``(id, (x, y))`` pairs.  Surviving
        nodes keep their index order and arrivals append after them, which
        is the row order of the rebased :class:`Graph` -- and, for
        monotonically increasing identifiers (the
        :class:`~repro.mobility.churn.ChurnProcess` discipline), also the
        sorted order the scratch path uses.  Churn moves no survivor, so
        the delta is every edge incident to a departure or an arrival.
        """
        old_ids = self._ids
        added, removed, _keep = self._churn_rows(departed, arrivals)
        return _edge_delta(added, removed, self._ids, old_ids)

    def _churn_rows(self, departed, arrivals):
        """:meth:`apply_churn` in row space: ``(added, removed, keep)``,
        the added rows of the new snapshot, the removed rows of the old
        one, and the mask of its surviving rows (``None`` when nothing
        joined or left)."""
        departed = [int(x) for x in departed]
        arrivals = [(int(node), position) for node, position in arrivals]
        if not departed and not arrivals:
            return _NO_ROWS, _NO_ROWS, None
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
        arrival_x, arrival_y = coordinate_columns(
            np.array([position for _node, position in arrivals],
                     dtype=float).reshape(-1, 2))
        lo, hi = self._edges()
        gone = ~(keep[lo] & keep[hi])
        removed = (lo[gone], hi[gone])
        self._ids_list = new_ids
        self._ids = np.array(new_ids, dtype=np.int64)
        self._x = np.concatenate((self._x[keep], arrival_x))
        self._y = np.concatenate((self._y[keep], arrival_y))
        self._rejoin()
        lo, hi = self._edges()
        # Arrivals take the rows past the survivors, and lo < hi.
        joined = hi >= int(keep.sum())
        return (lo[joined], hi[joined]), removed, keep

    def __repr__(self):
        return (f"DynamicUnitDisk(n={len(self)}, m={self.edge_count()}, "
                f"radius={self.radius}, skin={self.skin})")


def triangle_credits(csr, lo, hi, coords, other, radius):
    """Per-row corner counts of ``csr``'s triangles through changed edges.

    ``csr`` is a unit-disk snapshot: two of its rows are adjacent iff they
    are within ``radius`` under ``coords``, its ``(x, y)`` coordinate
    columns.  ``lo`` / ``hi`` are the changed edges as row pairs (``lo <
    hi``), all present in ``csr``; ``other`` holds the other snapshot's
    coordinates aligned with ``csr``'s rows, NaN for a row absent from
    it, so an edge of ``csr`` changed iff it is out of range under
    ``other``.

    Each edge expands its endpoint with the shorter neighbor list; a
    candidate corner ``w`` closes a triangle iff it is not the other
    endpoint ``b`` and ``(b, w)`` is within range under ``coords`` -- a
    distance probe, no search.  A triangle holding several changed edges
    is found through each of them and credited once, through the one
    with the smallest key ``lo * n + hi``, to each of its three corners.
    Seen from edge ``(lo, hi)``, a changed ``(lo, w)`` has the smaller
    key iff ``w < hi`` and a changed ``(hi, w)`` iff ``w < lo``, so only
    those sides are probed under ``other``.
    """
    n = len(csr)
    credits = np.zeros(n, dtype=np.int64)
    if not lo.size:
        return credits
    r2 = radius * radius
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    indptr = csr.indptr.astype(np.int64)
    degrees = csr.degrees()
    swap = degrees.take(hi) < degrees.take(lo)
    expand = np.where(swap, hi, lo)
    probe_row = np.where(swap, lo, hi)
    counts = degrees.take(expand)
    ends = np.cumsum(counts)
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
            at = np.repeat(indptr.take(expand[start:stop])
                           - (ends[start:stop] - size - base), size)
            at += np.arange(total, dtype=np.int64)
            w = csr.indices.take(at).astype(np.int64)
            b = probe_row.take(edge)
            closed = np.flatnonzero(
                (w != b) & within_range(*coords, b, w, r2))
            edge = edge.take(closed)
            w = w.take(closed)
            low = lo.take(edge)
            high = hi.take(edge)
            earlier = np.zeros(len(w), dtype=bool)
            side = np.flatnonzero(w < high)
            earlier[side] = ~within_range(*other, low.take(side),
                                          w.take(side), r2)
            side = np.flatnonzero(w < low)
            earlier[side] |= ~within_range(*other, high.take(side),
                                           w.take(side), r2)
            first = np.flatnonzero(~earlier)
            corners = np.concatenate((low.take(first), high.take(first),
                                      w.take(first)))
            credits += np.bincount(corners, minlength=n)
        start = stop
    return credits


class DensityMap(Mapping):
    """Exact Definition-1 densities of one snapshot, as a read-only mapping.

    The library's one exact-density mapping: each window of a
    :class:`DynamicTopology` carries one, and ``all_densities(graph,
    exact=True)`` returns one over the graph's CSR snapshot.  A view over
    the snapshot's row-ordered ``ids`` and its ``int64`` ``degrees`` and
    ``triangles`` arrays: a lookup builds ``Fraction(deg + tri, deg)``
    -- ``Fraction(0)`` for an isolated node -- so two maps over the same
    integers compare equal, to each other and to a dict of those
    Fractions, from either side of ``==``; iteration follows ``ids``.
    No Fraction is kept, so a reader that looks every density up on
    every step should copy the map into a dict once.
    :attr:`float_image` is ``density_float_image(degrees, triangles)``:
    each entry is the correctly rounded quotient of the same two
    integers, hence bit for bit ``float(self[node])``, and the election
    engine ranks with it directly.
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


class PositionMap(Mapping):
    """One window's positions, as a read-only ``{id: (x, y)}`` mapping.

    Built in O(1), the way :class:`DensityMap` views its arrays: a view
    over the row-ordered identifiers and the window's ``x`` / ``y``
    coordinate columns.  A lookup returns the two coordinates as Python
    floats, the pair a dict built from ``x.tolist()`` / ``y.tolist()``
    holds, so the map compares equal to that dict from either side of
    ``==``.  The disk installs new columns on every move and never writes
    into old ones, so a map kept from one window keeps reading that
    window's positions.
    """

    def __init__(self, ids, x, y):
        self._ids = ids
        self._x = x
        self._y = y
        self._index_of = None

    def __getitem__(self, node):
        if self._index_of is None:
            self._index_of = {key: i for i, key in enumerate(self._ids)}
        row = self._index_of[node]
        return float(self._x[row]), float(self._y[row])

    def __iter__(self):
        return iter(self._ids)

    def __len__(self):
        return len(self._ids)

    def __reduce__(self):
        return (PositionMap, (self._ids, self._x, self._y))

    def __repr__(self):
        return f"PositionMap(n={len(self._ids)})"


@dataclass(frozen=True)
class WindowUpdate:
    """Everything one window of dynamics produced.

    ``topology`` is the dynamic topology's one :class:`Topology` for the
    current node set: a move hands back the same object with the *live*
    graph (rebased again by the next window -- read metrics within the
    window, as the experiment loops do) and a fresh :class:`PositionMap`
    of this window's positions, which stays valid after later moves;
    only churn builds a new one.
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

    :attr:`topology` is one :class:`Topology` per node set: a move
    changes neither the nodes nor their identifiers, so it keeps the
    object and only swaps its ``positions`` for the window's
    :class:`PositionMap`; churn builds and validates a new one.
    """

    def __init__(self, positions, radius, ids=None, skin=None,
                 track_densities=True):
        self._disk = DynamicUnitDisk(positions, radius, ids=ids, skin=skin)
        self.radius = self._disk.radius
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
        """A validated :class:`Topology` over the live graph.  Its
        positions come from the same identifier list as the graph's
        nodes, so they cover exactly those nodes."""
        topology = Topology(self.graph, radius=self.radius)
        topology.positions = self._positions()
        return topology

    def _positions(self):
        return PositionMap(self._disk._ids_list, *self._disk.coordinates)

    def __len__(self):
        return len(self.graph)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def move(self, positions):
        """One mobility window: adopt new positions, return the update."""
        before = self._disk.coordinates
        added, removed = self._disk._move_rows(positions)
        ids = self._disk._ids
        delta = _edge_delta(added, removed, ids, ids)
        changed = self._rebase(delta, added, removed, before) if delta \
            else frozenset()
        self.topology.positions = self._positions()
        return self._update(delta, changed)

    def apply_churn(self, departed=(), arrivals=()):
        """One churn epoch: departures vanish with their edges, arrivals
        boot fresh; returns the update."""
        before = self._disk.coordinates
        old_ids = self._disk._ids
        added, removed, keep = self._disk._churn_rows(departed, arrivals)
        delta = _edge_delta(added, removed, self._disk._ids, old_ids)
        if keep is None:
            changed = frozenset()
        else:
            changed = self._rebase(delta, added, removed, before, keep)
        self.topology = self._wrap()
        return self._update(delta, changed)

    def _update(self, delta, changed):
        return WindowUpdate(
            topology=self.topology, delta=delta,
            density_changed=None if self.triangles is None else changed,
            densities=self.densities)

    def _rebase(self, delta, added, removed, before, keep=None):
        """Install the disk's snapshot and move the triangle counts.

        ``added`` / ``removed`` are the delta's row pairs in the new and
        the old snapshot, ``before`` the old snapshot's coordinate
        columns, and ``keep`` masks its surviving rows (churn):
        survivors keep their order and arrivals append, so the
        survivors' rows come first in the new snapshot.  Returns the
        identifiers whose degree or triangle count changed, arrivals
        included.
        """
        old = self.graph.to_csr()
        new = self._disk.snapshot()
        after = self._disk.coordinates
        survivors = len(old) if keep is None else int(keep.sum())
        self.graph.adopt_csr(new, added=len(delta.added),
                             removed=len(delta.removed),
                             joined=len(new) - survivors,
                             left=len(old) - survivors)
        if self.triangles is None:
            return None
        if keep is None:
            # Each snapshot's rows, placed as the other snapshot has them.
            old_seen_later, new_seen_earlier = after, before
        else:
            # Churn moves no survivor: each snapshot's own coordinates,
            # with NaN rows for the nodes the other snapshot lacks.
            old_seen_later = tuple(np.where(keep, column, np.nan)
                                   for column in before)
            new_seen_earlier = tuple(np.concatenate(
                (column[:survivors], np.full(len(new) - survivors, np.nan)))
                for column in after)
        old_tri = self.triangles
        old_deg = old.degrees()
        tri = old_tri - triangle_credits(old, *removed, before,
                                         old_seen_later, self.radius)
        if keep is not None:
            tri, old_tri, old_deg = tri[keep], old_tri[keep], old_deg[keep]
        tri = np.concatenate(
            (tri, np.zeros(len(new) - survivors, dtype=np.int64)))
        tri += triangle_credits(new, *added, after, new_seen_earlier,
                                self.radius)
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
