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
        cached_names = runtime.cached_all("dag_id")
        cached_ids = [value for value in cached_names.values()
                      if value is not None]
        if self.variant == "randomized":
            runtime.shared["dag_id"] = new_id(current, cached_ids,
                                              self.namespace, rng)
            return
        # Polite variant: re-draw only when conflicting with a neighbor of
        # larger normal identifier (or when the name is invalid).
        if current not in self.namespace:
            runtime.shared["dag_id"] = self.namespace.sample(
                rng, exclude=cached_ids)
            return
        colliders = [q for q, value in cached_names.items()
                     if value == current]
        if any(runtime.cached(q, "tie_id", q) > runtime.tie_id
               for q in colliders):
            runtime.shared["dag_id"] = self.namespace.sample(
                rng, exclude=cached_ids)
