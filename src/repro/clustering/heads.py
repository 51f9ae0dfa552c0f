"""Per-node cluster-head choice rules (the ``clusterHead`` functions of §4).

These are the *local* rules a node evaluates over its neighborhood view,
stated per node.  The centralized election runs them as array passes
over all nodes at once (``_basic_parents`` and ``_fusion_adjust`` in
:mod:`repro.clustering.incremental`); the per-node reference election in
``tests/oracles/election.py`` calls into this module, and the test
suites hold the two to identical results.

Basic rule (Section 4.2)::

    clusterHead = Id_p                     if  forall q in Np:  q ≺ p
                  H(max≺ {q in Np})        otherwise

Fusion rule (Section 4.3) strengthens the self-election condition: ``p``
must also dominate every node in its 2-neighborhood that currently claims
to be a cluster-head.  Only local maxima claim headship and no two of
them are adjacent, so ``_fusion_adjust`` checks the condition against
the maxima that share a neighbor with ``p``; the per-node rules here
take the whole 2-neighborhood, as the paper states them.
"""


def is_local_max(key_p, neighbor_keys):
    """True iff every neighbor precedes ``p`` (``forall q in Np: q ≺ p``).

    A node with no neighbors is vacuously a local maximum (isolated nodes
    elect themselves, DESIGN.md deviation 2).
    """
    return all(key_q < key_p for key_q in neighbor_keys)


def best_neighbor(neighbor_keys_by_node):
    """``max≺ {q in Np}``: the neighbor with the greatest key.

    ``neighbor_keys_by_node`` maps neighbor -> key and must be non-empty.
    """
    return max(neighbor_keys_by_node, key=neighbor_keys_by_node.get)


def choose_parent(node, key_p, neighbor_keys_by_node):
    """``F(p)``: the node itself when locally maximal, else its best neighbor."""
    if is_local_max(key_p, neighbor_keys_by_node.values()):
        return node
    return best_neighbor(neighbor_keys_by_node)


def dominates_two_hop_heads(key_p, claimed_head_keys):
    """The extra fusion condition of Section 4.3.

    ``claimed_head_keys`` are the keys of every node ``q`` in ``N2_p`` (the
    2-neighborhood, ``p`` excluded) with ``H(q) = Id_q``, i.e. nodes that
    currently claim cluster-head status.  ``p`` may elect itself only if it
    dominates all of them.
    """
    return all(key_q < key_p for key_q in claimed_head_keys)


def wants_headship(key_p, neighbor_keys, claimed_two_hop_head_keys=None):
    """Full self-election test: local maximality plus (optionally) fusion.

    Pass ``claimed_two_hop_head_keys=None`` for the basic rule of §4.2 and a
    (possibly empty) iterable for the fusion rule of §4.3.
    """
    if not is_local_max(key_p, neighbor_keys):
        return False
    if claimed_two_hop_head_keys is None:
        return True
    return dominates_two_hop_heads(key_p, claimed_two_hop_head_keys)
