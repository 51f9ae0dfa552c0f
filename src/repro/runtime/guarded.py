"""Guarded assignment statements (the ``G -> S`` notation of Section 4).

A program is a nondeterministic composition ``G1 -> S1 [] G2 -> S2 [] ...``
of guarded assignments over a node's local variables.  Execution semantics
(Section 4): the node infinitely re-evaluates its guards; within one
constant-time unit every statement with a true guard is executed (we use
the paper's suggested round-robin order, i.e. program order).

Guards and actions receive the :class:`~repro.runtime.node.NodeRuntime`
and an RNG; actions mutate ``runtime.shared`` only -- the runtime enforces
that a node cannot write another node's state.
"""

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class GuardedCommand:
    """One ``G -> S`` statement with a diagnostic name."""

    name: str
    guard: callable
    action: callable

    def fire(self, runtime, rng):
        """Evaluate the guard; execute the assignment if it holds.

        Returns True iff the action ran (used by traces and tests).
        """
        if self.guard(runtime, rng):
            self.action(runtime, rng)
            return True
        return False


def always(_runtime, _rng):
    """The constant guard ``true`` (used by N1, R1 and R2)."""
    return True


class Program:
    """An ordered composition of guarded commands for one protocol layer."""

    def __init__(self, commands):
        self.commands = list(commands)
        names = [c.name for c in self.commands]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate command names: {names}")

    def execute(self, runtime, rng):
        """Run one round-robin pass; return the names of fired commands.

        Each command fires as :meth:`GuardedCommand.fire` would fire it;
        the constant guard :func:`always` is not called.
        """
        fired = []
        for command in self.commands:
            guard = command.guard
            if guard is always or guard(runtime, rng):
                command.action(runtime, rng)
                fired.append(command.name)
        return fired

    def __iter__(self):
        return iter(self.commands)

    def __len__(self):
        return len(self.commands)
