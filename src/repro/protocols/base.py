"""Protocol interface and composition.

A *protocol layer* contributes three things:

* initial shared-variable values (a legitimate fresh boot -- stabilization
  tests overwrite them with arbitrary garbage afterwards);
* a payload: the slice of the node's shared variables it broadcasts each
  step;
* a :class:`~repro.runtime.guarded.Program` of guarded commands.

Layers compose with :class:`ProtocolStack`: payloads merge (key collisions
are configuration errors) and programs concatenate in stack order, which
realizes the paper's round-robin execution across layers (discovery before
naming before clustering).
"""

from repro.runtime.guarded import Program
from repro.util.errors import ConfigurationError


class Protocol:
    """Base class: a protocol that shares nothing and does nothing."""

    def initialize(self, runtime, rng):
        """Set this layer's shared variables to legitimate boot values."""

    def payload(self, runtime):
        """The slice of ``runtime.shared`` this layer broadcasts."""
        return {}

    def program(self):
        """This layer's guarded commands."""
        return Program([])


class ProtocolStack(Protocol):
    """Composition of protocol layers into one node program."""

    def __init__(self, layers):
        self.layers = list(layers)
        if not self.layers:
            raise ConfigurationError("a protocol stack needs at least one layer")

    def initialize(self, runtime, rng):
        for layer in self.layers:
            layer.initialize(runtime, rng)

    def payload(self, runtime):
        merged = {}
        for layer in self.layers:
            part = layer.payload(runtime)
            if not merged.keys().isdisjoint(part):
                overlap = sorted(set(part) & set(merged))
                raise ConfigurationError(
                    f"payload key collision across layers: {overlap}")
            merged.update(part)
        return merged

    def program(self):
        commands = []
        for layer in self.layers:
            commands.extend(layer.program())
        return Program(commands)
