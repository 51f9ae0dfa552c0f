"""The density-driven election as array rules, maintained across windows.

Every election in the library runs through this module.  A scratch
election (:func:`~repro.clustering.oracle.compute_clustering`) is a
fresh :class:`IncrementalElection`'s first window; the mobility and
churn pipelines keep one engine per configuration alive and re-elect
every window, re-seeding only what changed:

* per-node election keys are kept as parallel arrays (density, incumbent
  flag, DAG name, tie identifier); a window refreshes only the entries
  whose density, head status, or DAG name changed;
* the ``≺`` order is realized by ranking the key arrays with one
  ``lexsort``.  Densities enter as floats, which is *exact* here: every
  density is a Fraction ``(deg + tri) / deg`` with numerator below
  ``n**2`` and denominator below ``n``, so distinct values differ by at
  least ``1/n**2`` while float spacing at the values' magnitude is below
  ``n * 2**-52`` -- strictly ordered after rounding for any ``n`` up to
  :data:`FLOAT_RANK_LIMIT`.  Beyond that bound, two distinct Fractions
  *may* round to one float; the engine then slots an exact *refinement*
  column into the lexsort -- sub-ranks computed with Fractions, but only
  inside groups of float-tied rows (float rounding is monotone, so the
  exact order can only disagree within such a group).  Every election
  stays exact at any scale, and Fractions are touched only where float
  ties are possible.  The engine ranks the paper's two orders only; any
  other order ranks its key tuples with one sort
  (:func:`~repro.clustering.oracle.clustering_from_keys`);
* the Section 4.2 parent choice is a vectorized per-row argmax over
  neighbor ranks on the CSR snapshot (:func:`_basic_parents`); the
  Section 4.3 fusion greedy runs in Python but only over the (few)
  local maxima, one CSR row slice each: two maxima are never adjacent,
  so a head within two hops of one is a head that shares a neighbor
  with it, read off a per-row record of the confirmed maximum next to
  each row (:func:`_fusion_adjust`).  These are the library's only copy
  of the two rules;
* when a window changes nothing -- empty edge delta, same densities,
  same incumbents, same names -- the previous
  :class:`~repro.clustering.result.Clustering` is returned as-is.  The
  same short-circuit applies when the *only* change is incumbent bits
  flipping on density-untied nodes: density is the primary key of ``≺``
  and the incumbent flag is consulted only between equal-density nodes,
  so with no edge/density/name frontier such flips cannot reorder any
  comparison and the previous election is provably bit-identical.

The reference is the per-node fixpoint in ``tests/oracles/election.py``
(one ``max`` over neighbor key tuples per node); the property suites
drive randomized graphs and window sequences through both and assert
identical heads, parents, and densities.
"""

import numpy as np

from repro.clustering.density import all_densities
from repro.clustering.order import BasicOrder, IncumbentOrder, id_column, make_order
from repro.clustering.result import Clustering
from repro.util.errors import ConfigurationError

# Above this node count the float image of the exact rational densities
# is no longer guaranteed injective (clustering.density.FLOAT_EXACT_LIMIT
# derives the bound); the engine then adds the exact refinement column
# to the lexsort.  Module-level so tests can lower it to force the
# refinement path on small graphs.
FLOAT_RANK_LIMIT = 100_000


def _previous_heads(previous):
    """The incumbent head set under ``compute_clustering`` semantics."""
    if previous is None:
        return frozenset()
    if isinstance(previous, (set, frozenset)):
        return previous
    return previous.heads


def _incumbent_mask(previous, ids):
    """Per-row incumbent flags over ``ids`` (``previous`` as in
    :func:`_previous_heads`); a previous clustering reads its own rows."""
    if previous is None or isinstance(previous, (set, frozenset)):
        heads = _previous_heads(previous)
        return np.fromiter((node in heads for node in ids), dtype=bool,
                           count=len(ids))
    return previous.head_mask(ids)


class IncrementalElection:
    """Per-configuration election engine reused across windows.

    One instance per (order, fusion) configuration, for the paper's two
    orders (``"basic"``, ``"incumbent"`` or their order objects); any
    other order raises :class:`ConfigurationError`.  :meth:`update` is
    called once per window with the maintained graph and exact densities
    and returns the same :class:`Clustering` a scratch election on that
    window's graph would.  The engine interface of
    :mod:`repro.clustering.engine` (``init`` / ``apply_delta`` /
    ``result``) rides on top of it for callers that speak
    :class:`~repro.graph.dynamic.WindowUpdate` streams; richer callers
    (per-window DAG renames, incumbent threading) keep calling
    :meth:`update` directly.
    """

    def __init__(self, order="basic", fusion=False):
        self.order = make_order(order) if isinstance(order, str) else order
        if type(self.order) not in (BasicOrder, IncumbentOrder):
            raise ConfigurationError(
                f"the election engine ranks the basic and incumbent orders "
                f"only, not {self.order!r}; compute_clustering ranks any "
                f"other order")
        self.fusion = bool(fusion)
        self._incumbent = isinstance(self.order, IncumbentOrder)
        self._ids = None
        self._tie = None
        self._dag = None
        self._density = None
        self._tied = None  # density-tie mask cache, None = stale
        self._refine = None  # exact tie-refinement cache, None = stale
        self._is_head = None
        self._last = None

    # ------------------------------------------------------------------
    # per-window entry point
    # ------------------------------------------------------------------

    def update(self, graph, densities, tie_ids, dag_ids=None, previous=None,
               density_changed=None, graph_changed=True, dag_changed=True):
        """Re-elect for one window; returns a :class:`Clustering`.

        ``densities`` is the exact density map maintained by the dynamic
        subsystem; when it carries a ``float_image`` over this graph's
        rows (a :class:`~repro.graph.dynamic.DensityMap`), the image is
        copied instead of converting Fractions node by node.
        ``density_changed`` names the nodes whose value may have
        changed since the previous call (``None`` = re-seed everything);
        ``graph_changed`` / ``dag_changed`` flag whether the edge set or
        the DAG names moved.  ``previous`` carries the incumbent heads
        exactly as in :func:`compute_clustering`.

        ``tie_ids`` must be stable per node: it is cached when the node
        set (re)seeds, matching the normal-identifier model of the paper
        (and every pipeline here, where ``Topology.ids`` never changes
        for a live node).  Re-mapping tie identifiers mid-sequence
        requires a fresh engine.  Tie identifiers and DAG names must be
        integers in ``(-2**63, 2**63)`` (checked by
        :func:`~repro.clustering.order.id_column` when they are read);
        :func:`compute_clustering` ranks larger integers by their key
        tuples.
        """
        csr = graph.to_csr()
        ids = csr.ids
        n = len(ids)
        reseed = ids != self._ids
        if reseed:
            self._tie = id_column(ids, tie_ids)
            self._ids = ids
            density_changed = None
            dag_changed = True

        if density_changed is None or density_changed:
            image = getattr(densities, "float_image", None)
            if image is not None and densities.ids == ids:
                # A DensityMap over this snapshot's rows: its float image
                # is bit for bit float() of every Fraction.
                self._density = image.copy()
            elif density_changed is None:
                self._density = np.fromiter(
                    (float(densities[node]) for node in ids),
                    dtype=np.float64, count=n)
            else:
                index_of = csr.index_of
                density = self._density
                for node in density_changed:
                    density[index_of[node]] = float(densities[node])
            self._tied = None
            self._refine = None

        if dag_changed:
            self._dag = None if dag_ids is None else id_column(
                ids, dag_ids, name="dag_ids", unique=False)

        is_head = _incumbent_mask(previous, ids)
        was_head = self._is_head
        heads_same = (was_head is not None
                      and np.array_equal(is_head, was_head))
        self._is_head = is_head

        unchanged_inputs = (self._last is not None and not reseed
                            and not graph_changed and not dag_changed
                            and not density_changed)
        if unchanged_inputs and (heads_same or not self._incumbent):
            return self._last
        if (unchanged_inputs and was_head is not None
                and not self._density_tied()[is_head != was_head].any()):
            # The window's delta is empty (no edge/density/name frontier)
            # and the incumbent bit flipped only on density-untied nodes.
            # Density is the primary key of the lexsort and the incumbent
            # flag is compared only between equal-density nodes, so these
            # flips cannot reorder any pair under "<": ranks, parents,
            # and fusion are provably unchanged.
            return self._last

        refine = self._refinement(densities) if n > FLOAT_RANK_LIMIT else None
        self._last = _ranked_clustering(
            graph, self._ranks(refine), fusion=self.fusion,
            densities=densities, dag_ids=dag_ids, order_name=self.order.name)
        return self._last

    # ------------------------------------------------------------------
    # the engine interface of repro.clustering.engine
    # ------------------------------------------------------------------

    def init(self, topology, densities=None):
        """Seed from a full topology and return its clustering.

        ``densities`` is the exact density map when the caller already
        maintains one (a density-tracking window stream); computed from
        scratch otherwise.
        """
        if densities is None:
            densities = all_densities(topology.graph, exact=True)
        previous = self._last if self._incumbent else None
        return self.update(topology.graph, densities, tie_ids=topology.ids,
                           previous=previous)

    def apply_delta(self, update):
        """Advance one window from a ``WindowUpdate``.

        Requires the stream to maintain densities (``window_stream`` with
        ``track_densities=True``, the default); an update without them
        falls back to a scratch re-seed.
        """
        if update.delta is None or update.densities is None:
            return self.init(update.topology, densities=update.densities)
        previous = self._last if self._incumbent else None
        return self.update(update.topology.graph, update.densities,
                           tie_ids=update.topology.ids, previous=previous,
                           density_changed=update.density_changed,
                           graph_changed=bool(update.delta),
                           dag_changed=False)

    def result(self):
        """The clustering of the last window."""
        if self._last is None:
            raise ConfigurationError(
                "engine holds no clustering; call init first")
        return self._last

    def _density_tied(self):
        """Mask of nodes whose density value is shared with another node.

        Only at these nodes can the incumbent flag (or any lower-order
        key component) influence ``≺``.  Cached until a density write
        invalidates it.  Below :data:`FLOAT_RANK_LIMIT` the float image
        is exact (module docstring), so float equality coincides with
        equality of the underlying Fractions; above it the float-tie
        mask is a *superset* of the exact ties, which keeps every use
        (the incumbent-flip short-circuit, the refinement scope)
        conservative.
        """
        if self._tied is None:
            density = self._density
            order = np.argsort(density, kind="stable")
            sorted_values = density[order]
            same = sorted_values[1:] == sorted_values[:-1]
            tied_sorted = np.zeros(len(density), dtype=bool)
            tied_sorted[1:] |= same
            tied_sorted[:-1] |= same
            self._tied = np.empty(len(density), dtype=bool)
            self._tied[order] = tied_sorted
        return self._tied

    def _refinement(self, densities):
        """Exact tie-breaking column for rows beyond the float-image bound.

        Above :data:`FLOAT_RANK_LIMIT` two *distinct* Fractions may round
        to the same float.  Within each group of float-tied rows this
        assigns sub-ranks by the exact Fraction order (equal Fractions
        share a sub-rank); everywhere else it is 0.  Slotted into the
        lexsort directly under the density column, the composite key
        ``(float density, refinement)`` realizes the exact Fraction
        ``<``: float rounding is monotone, so across different float
        values the float order already agrees with the exact order, and
        within one float value the refinement decides.  Fractions are
        compared only over the (rare) float-tied rows; cached until a
        density write invalidates it.
        """
        if self._refine is None:
            refine = np.zeros(len(self._density), dtype=np.int64)
            tied_rows = np.flatnonzero(self._density_tied())
            if tied_rows.size:
                ids = self._ids
                values = self._density
                by_value = tied_rows[np.argsort(values[tied_rows], kind="stable")]
                rows = by_value.tolist()
                start = 0
                while start < len(rows):
                    stop = start + 1
                    value = values[rows[start]]
                    while stop < len(rows) and values[rows[stop]] == value:
                        stop += 1
                    group = rows[start:stop]
                    exact = sorted({densities[ids[row]] for row in group})
                    if len(exact) > 1:
                        sub = {fraction: k for k, fraction in enumerate(exact)}
                        for row in group:
                            refine[row] = sub[densities[ids[row]]]
                    start = stop
            self._refine = refine
        return self._refine

    def _ranks(self, refine=None):
        """Rank of every row under ``≺`` (greater rank wins).

        One lexsort over the key columns in the exact precedence of
        ``order.key``: density (refined by the exact column when given),
        then (incumbent order only) head status, then DAG name, then tie
        identifier -- the identifier components negated because smaller
        identifiers win.
        """
        cols = [-self._tie]
        if self._dag is not None:
            cols.append(-self._dag)
        if self._incumbent:
            cols.append(self._is_head)
        if refine is not None:
            cols.append(refine)
        cols.append(self._density)
        order = np.lexsort(tuple(cols))
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order), dtype=np.int64)
        return ranks


def _ranked_clustering(graph, ranks, fusion=False, densities=None,
                       dag_ids=None, order_name=None):
    """The :class:`Clustering` that per-row ``ranks`` elect on ``graph``.

    ``ranks`` is indexed like the rows of ``graph.to_csr()`` and must be
    distinct (greater rank wins); the Section 4.2 parent rule runs
    first, then, with ``fusion``, the Section 4.3 fusion greedy.
    """
    csr = graph.to_csr()
    parent_idx, self_wins = _basic_parents(csr, ranks)
    if fusion:
        _fusion_adjust(csr, ranks, parent_idx, self_wins)
    return Clustering.from_rows(graph, parent_idx, densities=densities,
                                dag_ids=dag_ids, order_name=order_name,
                                fusion=fusion)


def _basic_parents(csr, ranks):
    """Vectorized Section 4.2 parent choice.

    Returns ``(parent_idx, self_wins)``: per-row parent row indices and
    the local-maximum mask: a node points at itself iff its rank beats
    every neighbor's (the ``clusterHead`` rule of Section 4.2, stated
    per node as ``choose_parent`` in ``tests/oracles/election.py``),
    else at its unique maximum-rank neighbor.  An isolated node beats
    its empty neighborhood and elects itself (DESIGN.md, deviation 2).
    """
    n = len(csr)
    indptr = csr.indptr
    indices = csr.indices
    parent_idx = np.arange(n, dtype=np.int64)
    row_max = np.full(n, -1, dtype=np.int64)
    if indices.size:
        deg = np.diff(indptr.astype(np.int64))
        nonempty = deg > 0
        nbr_rank = ranks[indices]
        row_max[nonempty] = np.maximum.reduceat(
            nbr_rank, indptr[:-1][nonempty].astype(np.int64))
        self_wins = ranks > row_max
        rows = np.repeat(np.arange(n, dtype=np.int64), deg)
        best_of_nonempty = indices[np.flatnonzero(
            nbr_rank == row_max[rows])].astype(np.int64)
        best = np.full(n, -1, dtype=np.int64)
        best[nonempty] = best_of_nonempty
        losers = ~self_wins
        parent_idx[losers] = best[losers]
    else:
        self_wins = np.ones(n, dtype=bool)
    return parent_idx, self_wins


def _fusion_adjust(csr, ranks, parent_idx, self_wins):
    """Apply the Section 4.3 fusion rule in place.

    The literal guard of Section 4.3 ("every node in my 2-neighborhood
    that currently claims headship precedes me") is self-referential
    through the evolving ``H`` values; its stable outcomes are exactly
    the greedy-by-decreasing-key resolutions.  Local maxima in
    decreasing rank order are confirmed unless a stronger confirmed head
    sits within two hops; a deposed maximum joins the strongest common
    neighbor it shares with its strongest dominator, which merges its
    cluster into the dominator's (the "fusion" the paper describes) and
    keeps parent chains acyclic (DESIGN.md, deviation 6).

    Ranks are distinct, so two local maxima are never adjacent: a head
    within two hops of a maximum is one that shares a neighbor with it.
    One pass over the maxima's own rows therefore decides everything.
    ``holder[v]`` is the rank of the confirmed maximum adjacent to row
    ``v`` (at most one: confirmed maxima share no neighbor), or -1.  A
    maximum whose neighbors all read -1 is confirmed and claims them;
    otherwise the greatest rank they read is its dominator, and the
    neighbors reading it are exactly the common neighbors it joins
    through.
    """
    indptr = csr.indptr
    indices = csr.indices
    maxima = np.flatnonzero(self_wins)
    holder = np.full(len(csr), -1, dtype=np.int64)
    for row in maxima[np.argsort(ranks[maxima])[::-1]].tolist():
        nbrs = indices[indptr[row]:indptr[row + 1]]
        if not nbrs.size:
            continue
        held = holder[nbrs]
        dominator = held.max()
        if dominator < 0:
            holder[nbrs] = ranks[row]
        else:
            common = nbrs[held == dominator]
            parent_idx[row] = common[np.argmax(ranks[common])]
