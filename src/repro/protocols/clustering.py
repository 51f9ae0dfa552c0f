"""Distributed density-driven clustering protocol (rules ``R1`` and ``R2``).

The protocol of Section 4.2 with the optional Section 4.3 refinements:

* ``R1: true -> d_p := density`` -- recompute the density from the cached
  2-neighborhood (neighbor sets reported by hello frames);
* ``R2: true -> H(p) := clusterHead`` -- re-evaluate headship / parent from
  the cached densities, names and head values.

Shared variables: ``density``, ``head``, ``parent``, plus (with fusion) a
``summary`` of cached neighbor states so 2-hop head claims propagate.

Every comparison funnels through the same per-node key order the
centralized oracle uses -- ``(density, [is_head,] -dag_id, -tie_id)`` --
so the protocol's stable state coincides with the oracle's fixpoint, which
the integration suite asserts on random topologies.  Values a node has not
learned yet rank below everything (unknown density below isolated's 0,
unknown DAG name loses every tie): a node acts on its best current
knowledge and revises as caches fill, which is exactly the transient
behaviour self-stabilization tolerates.

A key leads with the density's float image, ``(float(d), d, ...)``:
correct rounding is monotone, so the keys order exactly as the
Fraction-led ones do, and two different densities are told apart by a
float comparison; the exact Fraction is compared only on a float tie.  A
density beyond the float range images to +-inf and so always falls
through to the Fraction.  R2 reads each neighbor's key off its cache
entry, where the first receiver of the frame memoized it.
"""

import math
from fractions import Fraction
from functools import lru_cache

from repro.runtime.guarded import GuardedCommand, Program, always
from repro.util.errors import ConfigurationError

UNKNOWN_DENSITY = Fraction(-1)
_UNKNOWN_DAG = float("-inf")  # negated component: loses all ties
_ORDERS = ("basic", "incumbent")


@lru_cache(maxsize=4096)
def _density(degree, links):
    """``(degree + links) / degree``, one shared object per value pair: a
    key comparison between equal densities then stops at identity."""
    return Fraction(degree + links, degree)


def _float_image(density):
    """``float(density)``, or +-inf when it is beyond the float range."""
    try:
        if type(density) is Fraction:
            # What float() computes for a Fraction, with fewer calls: the
            # correctly rounded quotient of the two integers.
            return density.numerator / density.denominator
        return float(density)
    except OverflowError:
        return math.inf if density > 0 else -math.inf


class DensityClusteringProtocol:
    """Maintains shared variables ``density``, ``head`` and ``parent``."""

    def __init__(self, order="basic", fusion=False, use_dag=True):
        if order not in _ORDERS:
            raise ConfigurationError(
                f"unknown order {order!r}; expected one of {_ORDERS}")
        self.order = order
        self.fusion = fusion
        self.use_dag = use_dag
        # A cache entry's key depends on the order and on use_dag: the
        # memo on a shared entry is kept per configuration.
        self._memo_tag = (order, use_dag)

    # ------------------------------------------------------------------
    # Protocol interface
    # ------------------------------------------------------------------

    def initialize(self, runtime, rng):
        runtime.shared.setdefault("density", None)
        runtime.shared.setdefault("head", None)
        runtime.shared.setdefault("parent", None)

    def payload(self, runtime):
        payload = {
            "density": runtime.shared.get("density"),
            "head": runtime.shared.get("head"),
        }
        if self.fusion:
            payload["summary"] = self._summary(runtime)
        return payload

    def program(self):
        return Program([
            GuardedCommand(name="clustering:R1-density", guard=always,
                           action=self._r1_density),
            GuardedCommand(name="clustering:R2-head", guard=always,
                           action=self._r2_head),
        ])

    # ------------------------------------------------------------------
    # R1: density from the cached 2-neighborhood
    # ------------------------------------------------------------------

    def _r1_density(self, runtime, _rng):
        neighbors = runtime.known_neighbors()
        if not neighbors:
            runtime.shared["density"] = Fraction(0)
            return
        # A link {q, r} between two neighbors counts once if either end
        # reports it: the directed reports, plus each one-way report once
        # more, make twice the links.
        caches = runtime.caches
        mutual = {}
        for q in neighbors:
            linked = neighbors.intersection(
                caches[q].payload.get("neighbors") or ())
            linked.discard(q)
            mutual[q] = linked
        twice = 0
        for q, linked in mutual.items():
            twice += len(linked)
            for r in linked:
                if q not in mutual[r]:
                    twice += 1
        runtime.shared["density"] = _density(len(neighbors), twice // 2)

    # ------------------------------------------------------------------
    # R2: cluster-head choice
    # ------------------------------------------------------------------

    def _r2_head(self, runtime, _rng):
        own_key = self._own_key(runtime)
        tag = self._memo_tag
        caches = runtime.caches
        # The first greatest neighbor key, as max() picks it.  Keys are
        # totally ordered: every neighbor key is below our own iff the
        # greatest one is.
        best = best_key = None
        for q in runtime.known_neighbors():
            entry = caches[q]
            key = entry.memo.get(tag)
            if key is None:
                key = self._entry_key(entry, q)
            if best_key is None or key > best_key:
                best, best_key = q, key
        if best_key is None or best_key < own_key:
            if not self.fusion:
                self._become_head(runtime)
                return
            dominator = self._strongest_dominator(runtime, own_key)
            if dominator is None:
                self._become_head(runtime)
                return
            self._join_toward(runtime, dominator)
            return
        self._join(runtime, best)

    def _become_head(self, runtime):
        runtime.shared["head"] = runtime.node_id
        runtime.shared["parent"] = runtime.node_id

    def _join(self, runtime, parent):
        runtime.shared["parent"] = parent
        runtime.shared["head"] = runtime.cached(parent, "head")

    def _join_toward(self, runtime, dominator):
        """Fusion: a deposed local maximum joins the strongest neighbor that
        reports the dominating 2-hop head as its own neighbor."""
        gateways = {q: self._neighbor_key(runtime, q)
                    for q in runtime.known_neighbors()
                    if dominator in (runtime.cached(q, "neighbors")
                                     or frozenset())}
        if not gateways:
            # The claim was heard through a now-stale summary; keep headship
            # until the topology view is consistent again.
            self._become_head(runtime)
            return
        best = max(gateways, key=gateways.get)
        self._join(runtime, best)

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    def _key(self, density, is_head, dag_id, tie_id):
        if density is None:
            density = UNKNOWN_DENSITY
        components = [_float_image(density), density]
        if self.order == "incumbent":
            components.append(bool(is_head))
        if self.use_dag:
            components.append(-dag_id if dag_id is not None else _UNKNOWN_DAG)
        components.append(-tie_id)
        return tuple(components)

    def _own_key(self, runtime):
        shared = runtime.shared
        return self._key(shared.get("density"),
                         shared.get("head") == runtime.node_id,
                         shared.get("dag_id") if self.use_dag else None,
                         runtime.tie_id)

    def _neighbor_key(self, runtime, q):
        """``q``'s key from its cache entry, memoized on the entry: the
        receivers of one frame share the entry and all need this key."""
        entry = runtime.caches[q]
        key = entry.memo.get(self._memo_tag)
        if key is None:
            key = self._entry_key(entry, q)
        return key

    def _entry_key(self, entry, q):
        """Compute ``q``'s key from ``entry`` and memoize it there."""
        payload = entry.payload
        key = entry.memo[self._memo_tag] = self._key(
            payload.get("density"),
            payload.get("head") == q,
            payload.get("dag_id") if self.use_dag else None,
            payload.get("tie_id", q))
        return key

    # ------------------------------------------------------------------
    # fusion support: 2-hop head claims via summaries
    # ------------------------------------------------------------------

    def _summary(self, runtime):
        """What this node relays about each cached neighbor: the fields a
        2-hop observer needs to evaluate the fusion guard."""
        summary = {}
        for q in runtime.known_neighbors():
            summary[q] = {
                "density": runtime.cached(q, "density"),
                "head": runtime.cached(q, "head"),
                "dag_id": runtime.cached(q, "dag_id"),
                "tie_id": runtime.cached(q, "tie_id", q),
            }
        return summary

    def _claimed_two_hop_heads(self, runtime):
        """Keys of nodes in the believed 2-neighborhood claiming headship."""
        claims = {}
        for q in runtime.known_neighbors():
            if runtime.cached(q, "head") == q:
                claims[q] = self._neighbor_key(runtime, q)
            relayed = runtime.cached(q, "summary") or {}
            for r, fields in relayed.items():
                if r == runtime.node_id or r in claims:
                    continue
                if fields.get("head") == r:
                    claims[r] = self._key(
                        density=fields.get("density"),
                        is_head=True,
                        dag_id=fields.get("dag_id") if self.use_dag else None,
                        tie_id=fields.get("tie_id", r),
                    )
        return claims

    def _strongest_dominator(self, runtime, own_key):
        """The strongest 2-hop head claim exceeding ``own_key``, if any."""
        claims = self._claimed_two_hop_heads(runtime)
        dominating = {r: key for r, key in claims.items() if key > own_key}
        if not dominating:
            return None
        return max(dominating, key=dominating.get)
