"""The clustering engines, one per metric, in one literal table.

An engine is a clusterer kept alive across the windows of a dynamic
workload.  Every engine speaks ``init(topology)`` (seed and return the
clustering), ``apply_delta(update)`` (advance one
:class:`~repro.graph.dynamic.WindowUpdate`: the live topology, the
exact edge delta and, when maintained, the exact densities) and
``result()``.  A scratch clustering of any metric is a fresh engine's
first window, so each metric has one implementation; the property
suite (``tests/property/test_engine_properties.py``) holds every engine
to the per-node oracles of ``tests/oracles/`` window by window.
"""

from repro.clustering.baselines.incremental import (
    GreedyDominatingEngine,
    MaxMinEngine,
)
from repro.clustering.incremental import IncrementalElection
from repro.util.errors import ConfigurationError

#: Engine factory per metric name.
ENGINES = {
    "degree": lambda: GreedyDominatingEngine("degree"),
    "density": IncrementalElection,
    "lowest-id": lambda: GreedyDominatingEngine("lowest-id"),
    "max-min": MaxMinEngine,
}


def engine_for(metric, **options):
    """A fresh engine for ``metric``.

    ``options`` are forwarded to the engine factory (e.g. ``d=2`` for
    ``"max-min"``, ``order=`` / ``fusion=`` for ``"density"``).
    """
    try:
        factory = ENGINES[metric]
    except KeyError:
        known = ", ".join(ENGINES)
        raise ConfigurationError(
            f"unknown clustering metric {metric!r}; known engines: {known}"
        ) from None
    return factory(**options)
