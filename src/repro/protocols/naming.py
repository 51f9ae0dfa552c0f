"""Distributed DAG renaming protocol (algorithm ``N1`` over the runtime).

The message-passing counterpart of :mod:`repro.naming.renaming`: each node
broadcasts its DAG name as a shared variable; the single guarded command
``N1: true -> Id_p := newId(Id_p)`` re-evaluates the name against the
cached neighbor names each step.

Two conflict-resolution variants (mirroring the offline simulators):

* ``"randomized"`` -- algorithm N1 exactly: any node that sees its own
  name among its cached neighbor names re-draws;
* ``"polite"`` -- the Section 5 simulation variant: on a collision only
  the endpoint with the smaller normal identifier re-draws.

The polite N1 scans a node's cache entries once, stopping at the first
neighbor that holds the node's name and has a larger normal identifier;
only a node that re-draws gathers the cached names it must avoid.
"""

from repro.naming.namespace import NameSpace
from repro.naming.renaming import new_id
from repro.runtime.guarded import GuardedCommand, Program, always
from repro.util.errors import ConfigurationError

VARIANTS = ("randomized", "polite")


class DagNamingProtocol:
    """Maintains the locally unique shared variable ``dag_id``."""

    def __init__(self, namespace, variant="polite"):
        if not isinstance(namespace, NameSpace):
            namespace = NameSpace(namespace)
        if variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}")
        self.namespace = namespace
        self.variant = variant

    def initialize(self, runtime, rng):
        runtime.shared.setdefault("dag_id", self.namespace.sample(rng))

    def payload(self, runtime):
        return {"dag_id": runtime.shared.get("dag_id")}

    def program(self):
        return Program([
            GuardedCommand(name="naming:N1", guard=always, action=self._n1),
        ])

    def _n1(self, runtime, rng):
        current = runtime.shared.get("dag_id")
        if self.variant == "randomized":
            runtime.shared["dag_id"] = new_id(current, _cached_names(runtime),
                                              self.namespace, rng)
            return
        # Polite variant: re-draw only when conflicting with a neighbor of
        # larger normal identifier (or when the name is invalid).  One
        # scan looks for such a collider; the exclusions are gathered only
        # for a re-draw.
        if current in self.namespace:
            tie_id = runtime.tie_id
            for q, entry in runtime.caches.items():
                payload = entry.payload
                if (payload.get("dag_id") == current
                        and payload.get("tie_id", q) > tie_id):
                    break
            else:
                return
        runtime.shared["dag_id"] = self.namespace.sample(
            rng, exclude=_cached_names(runtime))


def _cached_names(runtime):
    """The names cached for ``runtime``'s neighbors, unset ones left out,
    in cache order."""
    return [name for name in runtime.cached_all("dag_id").values()
            if name is not None]
