"""Round-based DAG renaming: algorithm ``N1`` and the Section 5 variant.

Algorithm ``N1`` (Section 4.1)::

    newId(Id_p) = Id_p                      if Id_p not in Cids_p
                  random(γ \\ Cids_p)        otherwise

    N1:  true  ->  Id_p := newId(Id_p)

where ``Cids_p`` is the cache of 1-neighbor names.  Every node re-evaluates
each round; conflicted nodes re-draw simultaneously (and may re-collide,
which the randomization resolves in expected constant time -- Theorem 1).

Section 5's simulations use a *polite* variant: when two neighbors collide,
only the one with the smaller "normal" identifier re-draws.  Both variants
are implemented here as synchronous round simulators over a global graph
view; the message-passing version lives in ``repro.protocols.naming`` and
reuses :func:`new_id`.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.naming.namespace import NameSpace, recommended_size
from repro.util.errors import ConfigurationError, ConvergenceError
from repro.util.rng import as_rng

DEFAULT_MAX_ROUNDS = 1000


def new_id(current, neighbor_ids, namespace, rng):
    """The ``newId`` function of algorithm N1 for one node."""
    if current is not None and current in namespace and current not in set(neighbor_ids):
        return current
    return namespace.sample(rng, exclude=neighbor_ids)


def conflicting_edges(graph, ids):
    """Edges whose endpoints currently share a DAG name."""
    return [(u, v) for u, v in graph.edges if ids[u] == ids[v]]


def is_locally_unique(graph, ids):
    """True iff no two neighbors share a DAG name (the legitimacy predicate
    of the naming layer).

    Checked on the graph's CSR snapshot: one vectorized name comparison
    over the edge arrays instead of the per-edge Python scan of
    :func:`conflicting_edges` -- the per-window mobility repair evaluates
    this on every (re)named topology, so it sits on the hot path.
    """
    eu, _ev, _names = _colliding_rows(graph.to_csr(), ids)
    return not eu.size


def _colliding_rows(csr, ids):
    """``(u, v, names)``: the row pairs of CSR edges whose endpoints
    share a name, and the names in row order.

    Integer names are compared as one int64 column; any other names
    (floats, over-int64 integers, mixed types) are first coded by
    equality through a dict, so the comparison stays exact.
    """
    names = [ids[node] for node in csr.ids]
    # np.array (not fromiter) so nothing is silently cast: floats, mixed
    # types, and over-int64 names all land on a non-integer dtype.
    codes = np.array(names)
    if codes.dtype.kind not in "iu" or codes.ndim != 1:
        index = {}
        codes = np.fromiter((index.setdefault(name, len(index))
                             for name in names),
                            dtype=np.int64, count=len(names))
    eu, ev = csr.edge_arrays()
    same = codes[eu] == codes[ev]
    return eu[same], ev[same], names


@dataclass
class RenamingResult:
    """Outcome of a renaming run.

    ``rounds`` counts broadcast rounds including the initial draw, i.e. the
    "number of steps needed to build the DAG" reported in Table 3.
    ``redraw_rounds`` counts only rounds in which some node re-drew.
    """

    ids: dict
    rounds: int
    redraw_rounds: int
    stable: bool
    history: list = field(default_factory=list)


class _RenamingBase:
    """Common driver: initial draw, then re-draw rounds until stable."""

    def __init__(self, namespace=None, max_rounds=DEFAULT_MAX_ROUNDS,
                 keep_history=False):
        self.namespace = namespace
        self.max_rounds = max_rounds
        self.keep_history = keep_history

    def _namespace_for(self, graph):
        if self.namespace is not None:
            return self.namespace
        return NameSpace(recommended_size(graph.max_degree()))

    def run(self, graph, rng=None, initial_ids=None, tie_ids=None):
        """Run to local uniqueness; raise ConvergenceError past the budget.

        ``initial_ids`` seeds the state (used by stabilization tests to
        start from corrupted configurations); when omitted every node draws
        uniformly, which counts as the first round.  ``tie_ids`` supplies
        normal identifiers for the polite variant (defaults to the nodes).
        """
        rng = as_rng(rng)
        namespace = self._namespace_for(graph)
        if tie_ids is None:
            tie_ids = {node: node for node in graph}
        if set(tie_ids) != set(graph.nodes):
            raise ConfigurationError("tie_ids must cover exactly the graph's nodes")

        if initial_ids is None:
            # One vector draw: it consumes the generator exactly as one
            # ``namespace.sample(rng)`` per node would, name for name.
            ids = dict(zip(graph, rng.integers(namespace.size,
                                               size=len(graph)).tolist()))
        else:
            ids = dict(initial_ids)
            if set(ids) != set(graph.nodes):
                raise ConfigurationError(
                    "initial_ids must cover exactly the graph's nodes")
        rounds = 1
        redraw_rounds = 0
        history = [dict(ids)] if self.keep_history else []

        while not is_locally_unique(graph, ids):
            if rounds >= self.max_rounds:
                raise ConvergenceError(
                    f"renaming did not stabilize within {self.max_rounds} "
                    "rounds", iterations=rounds)
            ids = self._redraw_round(graph, ids, namespace, tie_ids, rng)
            rounds += 1
            redraw_rounds += 1
            if self.keep_history:
                history.append(dict(ids))
        return RenamingResult(ids=ids, rounds=rounds,
                              redraw_rounds=redraw_rounds, stable=True,
                              history=history)

    def _redraw_round(self, graph, ids, namespace, tie_ids, rng):
        raise NotImplementedError


class RandomizedRenaming(_RenamingBase):
    """Algorithm N1: every conflicted node re-draws simultaneously.

    Matches the guarded command ``true -> Id_p := newId(Id_p)`` evaluated
    synchronously: a node keeps its name iff no cached neighbor name equals
    it, else draws uniformly outside the cached names.
    """

    def _redraw_round(self, graph, ids, namespace, tie_ids, rng):
        updated = {}
        for node in graph:
            neighbor_ids = [ids[q] for q in graph.neighbors(node)]
            updated[node] = new_id(ids[node], neighbor_ids, namespace, rng)
        return updated


class PoliteRenaming(_RenamingBase):
    """Section 5 variant: on a collision, only the smaller normal identifier
    re-draws ("the node with the smallest normal Id chooses another DAG Id
    and so on until every node has a different DAG Id than its neighbors")."""

    def _redraw_round(self, graph, ids, namespace, tie_ids, rng):
        # The redrawers come from one name comparison over the edge
        # arrays: on each colliding edge the endpoint with the smaller
        # normal identifier redraws.  They then draw in graph order,
        # excluding their neighbors' names, as a per-node scan would.
        csr = graph.to_csr()
        nodes = csr.ids
        eu, ev, names = _colliding_rows(csr, ids)
        redraw = set()
        for u, v in zip(eu.tolist(), ev.tolist()):
            tie_u, tie_v = tie_ids[nodes[u]], tie_ids[nodes[v]]
            if tie_u < tie_v:
                redraw.add(u)
            elif tie_v < tie_u:
                redraw.add(v)
        updated = dict(zip(nodes, names))
        indptr = csr.indptr
        indices = csr.indices
        for row in sorted(redraw):
            exclude = [names[q] for q in
                       indices[indptr[row]:indptr[row + 1]].tolist()]
            updated[nodes[row]] = namespace.sample(rng, exclude=exclude)
        return updated
