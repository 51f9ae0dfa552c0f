"""The baseline clusterers as engines maintained across windows.

The greedy 1-hop rule (lowest-ID, highest-degree) and max-min d-cluster
formation each have one implementation, an engine.  A scratch baseline
clustering is a fresh engine's first window: :meth:`EngineBase.seed`
on the graph and its int64 tie column, which ``init(topology)`` calls
too.  Both engines admit exact incremental maintenance under edge
deltas:

* **Greedy dominating** -- a node is a head iff no higher-priority
  neighbor is a head, a recursion on the total priority order.  A delta
  can only flip statuses along decreasing-priority chains starting at
  the touched nodes, so the engine repairs with a max-priority heap
  seeded from the delta endpoints (plus their neighbors for the degree
  metric, whose priorities move with the endpoint degrees): when a row
  pops, every strictly higher-priority status is already final, so its
  own status follows from one neighborhood scan.  Affiliation is then
  recomputed only for seeds, flipped rows, and flipped rows' neighbors.
* **Max-min** -- the ``2d`` flooding rounds are monotone local maps: a
  round value changes only where the neighborhood itself changed (a
  delta endpoint) or where a neighbor's previous-round value changed.
  The engine re-reduces exactly those rows per round (the growing d-hop
  dirty ball around the delta), re-selects heads only where a log entry
  moved, maintains the selected-by counts behind the membership
  normalization, and re-sweeps parents only inside clusters that gained
  a member, lost a member, or contain a delta endpoint.

Both engines re-run their seed's array kernels (``common.py``,
``maxmin.py``) when the dirty region exceeds
``1 / SCRATCH_FALLBACK_FRACTION`` of the population -- at that size one
array pass over everything beats bookkeeping per dirty row.  Either way
every window equals a fresh engine's first window on the same topology,
and the property suite holds both to the per-node oracles of
``tests/oracles/baselines.py`` window by window.
"""

import heapq

import numpy as np

from repro.clustering.baselines.common import affiliate, greedy_heads, scan_rank
from repro.clustering.baselines.maxmin import (
    cluster_parent_rows,
    flood_logs,
    rows_of_ids,
    select_head_ids,
)
from repro.clustering.order import id_column
from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError

#: Past ``n / SCRATCH_FALLBACK_FRACTION`` dirty rows the engines re-run
#: the scratch array pipeline instead of repairing row by row.
SCRATCH_FALLBACK_FRACTION = 8


def maxmin_clustering(graph, d=2, tie_ids=None):
    """Max-Min d-cluster heads and membership over ``graph``.

    ``tie_ids`` maps node -> unique integer identifier; defaults to the
    nodes themselves.  A fresh :class:`MaxMinEngine`'s first window.
    """
    engine = MaxMinEngine(d)
    return engine.seed(graph, id_column(graph.to_csr().ids, tie_ids))


def _closed_reduce_rows(indptr, indices, values, rows, ufunc):
    """``ufunc`` over the closed neighborhoods of ``rows`` only."""
    result = values[rows].copy()
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total:
        nonempty = counts > 0
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        take = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets, counts)
            + np.repeat(indptr[rows], counts)
        )
        reduced = ufunc.reduceat(values[indices[take]], offsets[nonempty])
        result[nonempty] = ufunc(result[nonempty], reduced)
    return result


class EngineBase:
    """Shared engine bookkeeping over ``_reseed`` / ``_apply`` hooks.

    Subclasses implement ``_reseed(csr, tie)`` (the full state) and
    ``_apply(csr, delta)`` (one window; only called with a non-empty
    delta over an unchanged node set), both leaving the parent rows in
    ``_parent``.  :meth:`apply_delta` re-seeds whenever the node set
    changed (a churn epoch) or the update carries no delta (the stream's
    first window), and keeps the previous clustering for an empty delta
    or an unchanged parent array.
    """

    def __init__(self):
        self._clustering = None
        self._seed_csr = None
        self._parent = None

    def init(self, topology, densities=None):
        """Seed from a full topology (``densities`` is never read)."""
        graph = topology.graph
        return self.seed(graph, id_column(graph.to_csr().ids, topology.ids))

    def seed(self, graph, tie):
        """The clustering of ``graph`` from scratch; ``tie`` holds the
        tie identifier per CSR row (:func:`~repro.clustering.order.id_column`)."""
        csr = graph.to_csr()
        self._seed_csr = csr
        self._reseed(csr, tie)
        self._clustering = self._to_clustering(graph)
        return self._clustering

    def apply_delta(self, update):
        """Advance one :class:`~repro.graph.dynamic.WindowUpdate`."""
        topology = update.topology
        csr = topology.graph.to_csr()
        if (
            self._clustering is None
            or update.delta is None
            or csr.ids != self._seed_csr.ids
        ):
            return self.init(topology)
        if not update.delta:
            return self._clustering
        old_parent = self._parent.copy()
        self._apply(csr, update.delta)
        if not np.array_equal(self._parent, old_parent):
            self._clustering = self._to_clustering(topology.graph)
        return self._clustering

    def result(self):
        """The clustering of the last window."""
        if self._clustering is None:
            raise ConfigurationError("engine holds no clustering; call init first")
        return self._clustering

    def _endpoint_rows(self, delta):
        """Unique rows incident to the delta, as an index array.

        Rows come from the seed snapshot's identifier -> row map: a
        window only runs over the node set the engine seeded on, so its
        snapshot never needs a map of its own.
        """
        index_of = self._seed_csr.index_of
        touched = np.concatenate((delta.added.reshape(-1), delta.removed.reshape(-1)))
        rows = np.fromiter((index_of[int(x)] for x in touched), dtype=np.int64)
        return np.unique(rows)

    def _to_clustering(self, graph):
        # The repairs keep writing ``_parent``: hand over a copy.
        return Clustering.from_rows(graph, self._parent.copy())


class GreedyDominatingEngine(EngineBase):
    """Incremental greedy dominating clustering (lowest-ID / degree).

    One class serves both metrics: the rule is identical, only the
    priority key differs.  Priorities are encoded one int64 per row --
    the negated rank of the tie identifier for ``"lowest-id"`` (smaller
    identifier wins) and ``(degree << 32) - tie_rank`` for ``"degree"``
    -- so every comparison in the repair loop is one scalar compare and
    the scratch scan order is one argsort.
    """

    def __init__(self, metric):
        super().__init__()
        if metric not in ("lowest-id", "degree"):
            raise ConfigurationError(
                f"unknown greedy metric {metric!r}; expected 'lowest-id' or 'degree'"
            )
        self.metric = metric
        self._tie_rank = None
        self._prio = None
        self._heads = None

    # ------------------------------------------------------------------
    # seeding and the scratch fallback
    # ------------------------------------------------------------------

    def _reseed(self, csr, tie):
        n = len(csr)
        self._tie_rank = np.empty(n, dtype=np.int64)
        self._tie_rank[np.argsort(tie)] = np.arange(n, dtype=np.int64)
        self._rebuild(csr)

    def _rebuild(self, csr):
        if self.metric == "degree":
            self._prio = (csr.degrees() << 32) - self._tie_rank
        else:
            self._prio = -self._tie_rank
        order = np.argsort(-self._prio, kind="stable")
        self._heads = greedy_heads(csr, order)
        self._parent = affiliate(csr, self._heads, scan_rank(order))

    # ------------------------------------------------------------------
    # the incremental window
    # ------------------------------------------------------------------

    def _apply(self, csr, delta):
        seeds = self._seed_rows(csr, delta)
        if seeds.size * SCRATCH_FALLBACK_FRACTION > len(csr):
            self._rebuild(csr)
        else:
            changed = self._repair(csr, seeds)
            self._reaffiliate(csr, self._affiliation_scope(csr, seeds, changed))

    def _seed_rows(self, csr, delta):
        """Rows whose head status could flip: the delta endpoints, plus
        their neighbors for the degree metric (the endpoint degrees
        changed, so comparisons against every neighbor may flip).
        Refreshes the stored priorities of the endpoint rows."""
        endpoints = self._endpoint_rows(delta)
        if self.metric == "lowest-id":
            return endpoints
        degrees = csr.degrees()
        self._prio[endpoints] = (degrees[endpoints] << 32) - self._tie_rank[endpoints]
        mask = np.zeros(len(csr), dtype=bool)
        mask[endpoints] = True
        indptr = csr.indptr
        indices = csr.indices
        for row in endpoints.tolist():
            mask[indices[indptr[row] : indptr[row + 1]]] = True
        return np.flatnonzero(mask)

    def _repair(self, csr, seeds):
        """Heap-ordered status repair; returns the rows that flipped.

        Rows pop in decreasing priority, so when one pops every strictly
        higher-priority status is final and its own status follows from
        one neighborhood scan; a flip enqueues the lower-priority
        neighbors whose own rule consults it.
        """
        indptr = csr.indptr
        indices = csr.indices
        prio = self._prio
        heads = self._heads
        queued = np.zeros(len(csr), dtype=bool)
        queued[seeds] = True
        heap = [(-int(prio[row]), int(row)) for row in seeds.tolist()]
        heapq.heapify(heap)
        changed = []
        while heap:
            _key, row = heapq.heappop(heap)
            nbrs = indices[indptr[row] : indptr[row + 1]]
            dominated = bool((heads[nbrs] & (prio[nbrs] > prio[row])).any())
            if bool(heads[row]) == dominated:
                heads[row] = not dominated
                changed.append(row)
                for q in nbrs[prio[nbrs] < prio[row]].tolist():
                    if not queued[q]:
                        queued[q] = True
                        heapq.heappush(heap, (-int(prio[q]), q))
        return np.array(changed, dtype=np.int64)

    def _affiliation_scope(self, csr, seeds, changed):
        """Rows whose parent may change: seeds (their adjacency or a
        neighbor's priority moved), flipped rows, and flipped rows'
        neighbors (they gained or lost an adjacent head)."""
        dirty = np.zeros(len(csr), dtype=bool)
        dirty[seeds] = True
        if changed.size:
            dirty[changed] = True
            indptr = csr.indptr
            indices = csr.indices
            for row in changed.tolist():
                dirty[indices[indptr[row] : indptr[row + 1]]] = True
        return np.flatnonzero(dirty)

    def _reaffiliate(self, csr, rows):
        indptr = csr.indptr
        indices = csr.indices
        heads = self._heads
        prio = self._prio
        parent = self._parent
        for row in rows.tolist():
            if heads[row]:
                parent[row] = row
                continue
            nbrs = indices[indptr[row] : indptr[row + 1]]
            adjacent = nbrs[heads[nbrs]]
            # Every non-head is dominated by construction.
            parent[row] = adjacent[np.argmax(prio[adjacent])]


class MaxMinEngine(EngineBase):
    """Incremental max-min d-cluster engine (see module docstring)."""

    def __init__(self, d=2):
        super().__init__()
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        self.d = int(d)
        self._tie = None
        self._max_log = None
        self._min_log = None
        self._head_id = None
        self._chosen = None
        self._counts = None
        self._labels = None

    def _reseed(self, csr, tie):
        self._tie = tie
        self._recompute(csr)

    def _recompute(self, csr):
        n = len(csr)
        self._max_log, self._min_log = flood_logs(csr, self._tie, self.d)
        self._head_id = select_head_ids(self._tie, self._max_log, self._min_log)
        self._chosen = rows_of_ids(self._tie, self._head_id)
        # A node selected as head by anyone heads its own cluster.
        self._counts = np.bincount(self._chosen, minlength=n)
        rows = np.arange(n, dtype=np.int64)
        self._labels = np.where(self._counts > 0, rows, self._chosen)
        self._parent = cluster_parent_rows(csr, self._tie, self._labels)

    def _apply(self, csr, delta):
        endpoint_mask = np.zeros(len(csr), dtype=bool)
        endpoint_mask[self._endpoint_rows(delta)] = True
        log_dirty = self._repair_floods(csr, endpoint_mask)
        if log_dirty is None:
            self._recompute(csr)
        else:
            self._update_membership(csr, endpoint_mask, log_dirty)

    def _repair_floods(self, csr, endpoint_mask):
        """Re-reduce both flood logs inside the growing dirty ball.

        Returns the mask of rows with a changed log entry, or ``None``
        when a round's candidate set crossed the scratch threshold.
        """
        n = len(csr)
        log_dirty = np.zeros(n, dtype=bool)
        final_changed = self._repair_one_flood(
            csr,
            self._max_log,
            self._tie,
            np.maximum,
            endpoint_mask,
            np.zeros(n, dtype=bool),
            log_dirty,
        )
        if final_changed is None:
            return None
        min_changed = self._repair_one_flood(
            csr,
            self._min_log,
            self._max_log[self.d - 1],
            np.minimum,
            endpoint_mask,
            final_changed,
            log_dirty,
        )
        if min_changed is None:
            return None
        return log_dirty

    def _repair_one_flood(
        self, csr, log, start, ufunc, endpoint_mask, seed_changed, log_dirty
    ):
        """One flood phase over its dirty ball; see :func:`flood_logs`.

        Round ``r`` recomputes exactly the rows whose closed neighborhood
        input could differ: the delta endpoints (their neighborhood
        itself changed) plus rows adjacent to a round-``r-1`` change
        (``seed_changed`` marks rows whose phase input moved).
        """
        indptr = csr.indptr.astype(np.int64)
        indices = csr.indices
        n = len(csr)
        changed_prev = seed_changed
        for r in range(self.d):
            cand_mask = endpoint_mask.copy()
            if changed_prev.any():
                cand_mask |= changed_prev
                for row in np.flatnonzero(changed_prev).tolist():
                    cand_mask[indices[indptr[row] : indptr[row + 1]]] = True
            cand = np.flatnonzero(cand_mask)
            if cand.size * SCRATCH_FALLBACK_FRACTION > n:
                return None
            prev = start if r == 0 else log[r - 1]
            new_vals = _closed_reduce_rows(indptr, indices, prev, cand, ufunc)
            moved_mask = new_vals != log[r][cand]
            moved = cand[moved_mask]
            log[r][moved] = new_vals[moved_mask]
            log_dirty[moved] = True
            changed_prev = np.zeros(n, dtype=bool)
            changed_prev[moved] = True
        return changed_prev

    def _update_membership(self, csr, endpoint_mask, log_dirty):
        """Propagate changed log rows to heads, labels, and parents."""
        n = len(csr)
        tie = self._tie
        labels_old = self._labels
        prev_positive = self._counts > 0
        sel = np.flatnonzero(log_dirty)
        if sel.size:
            new_ids = select_head_ids(tie, self._max_log, self._min_log, rows=sel)
            moved = new_ids != self._head_id[sel]
            sel = sel[moved]
            new_ids = new_ids[moved]
        if sel.size:
            new_rows = rows_of_ids(tie, new_ids)
            np.subtract.at(self._counts, self._chosen[sel], 1)
            np.add.at(self._counts, new_rows, 1)
            self._chosen[sel] = new_rows
            self._head_id[sel] = new_ids
        now_positive = self._counts > 0
        relabel = prev_positive != now_positive
        relabel[sel] = True
        rows = np.flatnonzero(relabel)
        labels = labels_old.copy()
        labels[rows] = np.where(now_positive[rows], rows, self._chosen[rows])
        self._labels = labels
        dirty = endpoint_mask.copy()
        dirty[rows[labels[rows] != labels_old[rows]]] = True
        affected = np.unique(np.concatenate((labels_old[dirty], labels[dirty])))
        is_affected = np.zeros(n, dtype=bool)
        is_affected[affected] = True
        active = is_affected[labels]
        if active.any():
            self._parent = cluster_parent_rows(
                csr, tie, labels, parent_rows=self._parent, active=active
            )
