"""Legitimacy predicates.

Self-stabilization is defined against a *legitimacy predicate* over global
states: from any initial state, every execution reaches a state satisfying
the predicate (convergence) and stays there (closure).  These predicates
compare protocol state -- which nodes built purely from received frames --
against ground truth computed from the real graph.  Each layer has its own
predicate, composed by :func:`clustering_legitimate` /
:func:`stack_legitimate`, mirroring the paper's proof structure (Lemma 1:
densities correct; Lemma 2: heads correct, by induction over ``DAG≺``).

Ground truth -- the true 1- and 2-hop sets, the exact densities and the
oracle clustering -- depends on the graph alone, so a predicate made by
:func:`make_stack_predicate` computes it once per CSR snapshot
(:class:`GroundTruth`) and reuses it for every step over that snapshot.
It is held by snapshot identity, as
:class:`~repro.runtime.channel.IdealChannel`'s scan cache is: a rebased
graph has a new snapshot.  It lives in the predicate's
closure, which is never pickled.  Every predicate that reads the truth
takes it as ``truth``, and computes it afresh when none is given.
:func:`two_hop_accurate` judges each cache entry once per call and
builds a receiver's believed 2-neighborhood only when its own view is
not already exact by those verdicts.
"""

from repro.clustering.density import all_densities
from repro.clustering.oracle import compute_clustering
from repro.naming.renaming import is_locally_unique


class GroundTruth:
    """What the legitimacy predicates compare against, for one snapshot.

    ``neighbors`` and ``two_hop`` map every node of the graph to its true
    1- and 2-neighborhood, ``densities`` to its exact density.
    :meth:`oracle` memoizes the oracle clustering per configuration and
    reuses it while the tie identifiers, the DAG names and (incumbent
    order) the claimed heads are unchanged.
    """

    def __init__(self, graph):
        self.snapshot = graph.to_csr()
        self.neighbors = neighbors = {node: graph.neighbors(node)
                                      for node in graph}
        # Graph.k_neighborhood(node, 2), from the sets above: the node's
        # neighbors and theirs, without the node.
        self.two_hop = {}
        for node, adjacent in neighbors.items():
            reach = set(adjacent)
            reach.update(*map(neighbors.__getitem__, adjacent))
            reach.discard(node)
            self.two_hop[node] = reach
        # The oracle ranks with the DensityMap's float image; the
        # per-step density predicate reads a dict built from it once.
        self._density_map = all_densities(graph, exact=True)
        self.densities = dict(self._density_map)
        self._oracles = {}

    def describes(self, graph):
        """True while ``graph`` still has the snapshot this was built on."""
        return self.snapshot is graph.to_csr()

    def oracle(self, graph, tie_ids, dag_ids, order, fusion, previous):
        """``(parents, heads)`` of the oracle clustering."""
        config = (order, fusion, dag_ids is not None)
        inputs = (tie_ids, dag_ids, previous)
        cached = self._oracles.get(config)
        if cached is not None and cached[0] == inputs:
            return cached[1]
        clustering = compute_clustering(graph, tie_ids=tie_ids,
                                        dag_ids=dag_ids, order=order,
                                        fusion=fusion, previous=previous,
                                        densities=self._density_map)
        result = ({node: clustering.parent(node) for node in graph},
                  {node: clustering.head(node) for node in graph})
        self._oracles[config] = (inputs, result)
        return result


def neighborhood_accurate(simulator, truth=None):
    """Every node's believed 1-neighborhood equals its true neighborhood."""
    if truth is None:
        truth = GroundTruth(simulator.graph)
    runtimes = simulator.runtimes
    return all(runtimes[node].caches.keys() == neighbors
               for node, neighbors in truth.neighbors.items())


def two_hop_accurate(simulator, truth=None):
    """Every node's believed 2-neighborhood equals the true one.

    Requires the *shared* neighbor sets (what neighbors reported) to be
    accurate, i.e. one more propagation step than 1-hop accuracy.

    Each cache entry is judged once per call, however many receivers
    hold it: does it report exactly its sender's true neighbors?  A
    receiver whose 1-hop set is exact and whose entries all pass sees
    its true 2-neighborhood, so only the other receivers build the union
    of the reported sets.
    """
    if truth is None:
        truth = GroundTruth(simulator.graph)
    runtimes = simulator.runtimes
    neighbors = truth.neighbors
    verdicts = {}
    for node, two_hop in truth.two_hop.items():
        runtime = runtimes[node]
        caches = runtime.caches
        if caches.keys() == neighbors[node]:
            for q, entry in caches.items():
                verdict = verdicts.get(id(entry))
                if verdict is None:
                    verdict = verdicts[id(entry)] = \
                        entry.payload.get("neighbors") == neighbors[q]
                if not verdict:
                    break
            else:
                continue
        if runtime.two_hop_view() != two_hop:
            return False
    return True


def naming_legitimate(simulator):
    """All DAG names are set and no two true neighbors share one."""
    ids = simulator.shared_map("dag_id")
    if any(value is None for value in ids.values()):
        return False
    return is_locally_unique(simulator.graph, ids)


def densities_legitimate(simulator, truth=None):
    """Every shared density equals Definition 1 on the true graph (Lemma 1)."""
    if truth is None:
        truth = GroundTruth(simulator.graph)
    shared = simulator.shared_map("density")
    return all(shared[node] == density
               for node, density in truth.densities.items())


def clustering_legitimate(simulator, order="basic", fusion=False,
                          use_dag=True, truth=None):
    """Shared parents and heads equal the oracle fixpoint (Lemma 2).

    The oracle is evaluated with the protocol's *current* DAG names (names
    are part of the configuration; legitimacy of the clustering layer is
    relative to them), so this predicate composes with
    :func:`naming_legitimate` rather than subsuming it.
    """
    graph = simulator.graph
    runtimes = simulator.runtimes
    tie_ids = {node: runtimes[node].tie_id for node in graph}
    dag_ids = simulator.shared_map("dag_id") if use_dag else None
    if use_dag and any(value is None for value in dag_ids.values()):
        return False
    previous = None
    if order == "incumbent":
        # The incumbent order has many fixpoints by design (hysteresis), so
        # legitimacy means *stationarity*: re-solving with the currently
        # claimed heads as incumbents must reproduce the current state.
        shared_heads = simulator.shared_map("head")
        previous = {node for node, head in shared_heads.items() if head == node}
    if truth is None:
        truth = GroundTruth(graph)
    parents, heads = truth.oracle(graph, tie_ids, dag_ids, order, fusion,
                                  previous)
    shared_parents = simulator.shared_map("parent")
    shared_heads = simulator.shared_map("head")
    return all(shared_parents[node] == parent
               and shared_heads[node] == heads[node]
               for node, parent in parents.items())


def stack_legitimate(simulator, order="basic", fusion=False, use_dag=True,
                     truth=None):
    """Full-stack legitimacy: neighborhoods, names, densities, clustering."""
    if truth is None:
        truth = GroundTruth(simulator.graph)
    if not neighborhood_accurate(simulator, truth):
        return False
    if not two_hop_accurate(simulator, truth):
        return False
    if use_dag and not naming_legitimate(simulator):
        return False
    if not densities_legitimate(simulator, truth):
        return False
    return clustering_legitimate(simulator, order=order, fusion=fusion,
                                 use_dag=use_dag, truth=truth)


def make_stack_predicate(order="basic", fusion=False, use_dag=True):
    """Bind :func:`stack_legitimate`'s configuration into a 1-arg predicate.

    The predicate keeps the :class:`GroundTruth` of the last snapshot it
    judged and rebuilds it only when the simulator's graph has a new one.
    """
    truth = None

    def predicate(simulator):
        nonlocal truth
        if truth is None or not truth.describes(simulator.graph):
            truth = GroundTruth(simulator.graph)
        return stack_legitimate(simulator, order=order, fusion=fusion,
                                use_dag=use_dag, truth=truth)
    predicate.__name__ = f"stack_legitimate[{order}, fusion={fusion}]"
    return predicate
