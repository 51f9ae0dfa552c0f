"""Name-draw oracle: the index-th free name by a scan of ``γ``.

:meth:`repro.naming.namespace.NameSpace.sample` maps its one
``rng.integers(free)`` draw to a name by walking the sorted exclusions.
This is the definition it must equal, draw for draw: scan ``γ`` in
increasing order and return the ``index``-th name not excluded.
"""

from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


def sample(namespace, rng, exclude=()):
    """``random(γ \\ exclude)`` over ``namespace`` by a scan of ``γ``."""
    rng = as_rng(rng)
    forbidden = {name for name in exclude if name in namespace}
    free = namespace.size - len(forbidden)
    if free <= 0:
        raise ConfigurationError(
            f"name space of size {namespace.size} exhausted by "
            f"{len(forbidden)} excluded names; increase |γ| above δ")
    index = int(rng.integers(free))
    count = -1
    for name in range(namespace.size):
        if name not in forbidden:
            count += 1
            if count == index:
                return name
    raise AssertionError("unreachable: free name accounting is wrong")
