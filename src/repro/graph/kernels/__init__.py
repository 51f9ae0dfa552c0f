"""Backend-selectable traversal kernels: pure numpy or compiled numba.

Every hot traversal loop in the repo -- BFS frontier expansion, the
label-constrained multi-source sweep (resumable, level by level, up to
a stop row), parent unwinding, component label propagation, and the
pointer-doubling forest resolve -- lives behind this seam.  Two
interchangeable backends implement it:

* :mod:`~repro.graph.kernels.numpy_backend` -- the reference
  implementation (the historical inline code of
  :mod:`repro.graph.traversal`, refactored);
* :mod:`~repro.graph.kernels.numba_backend` -- ``numba.njit(cache=True)``
  compiled loops, **bit-identical by contract** (the
  ``tests/graph/test_kernels.py`` parity suite proves it property-wise).

Selection happens once at import via the ``REPRO_KERNELS`` environment
variable:

* ``auto`` (default) -- use numba when importable, else numpy;
* ``numba`` -- use numba; if it is unavailable the fallback to numpy is
  *silent* (nothing raises, every caller keeps working) but
  *loud-logged* (a ``WARNING`` on this module's logger names the import
  error), so headless runs leave a trace of the degraded mode;
* ``numpy`` -- force the reference backend even when numba is present
  (the CI default jobs run this way to keep the fallback path proven).

``repro doctor`` prints :func:`backend_info` so a host's active backend
is one command away.  Because outputs are bit-identical, every
experiment table, route, and collector result is invariant under the
switch -- the backend only moves wall-clock.
"""

import logging
import os

from repro.graph.kernels import numpy_backend
from repro.util.errors import ConfigurationError

_LOG = logging.getLogger(__name__)

#: Accepted ``REPRO_KERNELS`` values.
CHOICES = ("auto", "numpy", "numba")

#: What the environment asked for (normalized; empty means ``auto``).
REQUESTED = os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"

if REQUESTED not in CHOICES:
    raise ConfigurationError(
        f"REPRO_KERNELS={REQUESTED!r} is not one of {CHOICES}"
    )

_active = numpy_backend
_numba_import_error = None
if REQUESTED in ("auto", "numba"):
    try:
        from repro.graph.kernels import numba_backend

        _active = numba_backend
    except ImportError as error:
        _numba_import_error = error
        if REQUESTED == "numba":
            _LOG.warning(
                "REPRO_KERNELS=numba requested but the numba backend is "
                "unavailable (%s); falling back to the numpy kernels",
                error,
            )
        else:
            _LOG.debug("numba unavailable (%s); using the numpy kernels",
                       error)

#: The active backend's name: ``"numpy"`` or ``"numba"``.
BACKEND = "numpy" if _active is numpy_backend else "numba"

expand_distances = _active.expand_distances
multi_source_distances = _active.multi_source_distances
bfs_parents = _active.bfs_parents
component_labels = _active.component_labels
resolve_forest = _active.resolve_forest
unwind_path = _active.unwind_path

#: The kernel entry points every backend must provide.
KERNELS = (
    "expand_distances",
    "multi_source_distances",
    "bfs_parents",
    "component_labels",
    "resolve_forest",
    "unwind_path",
)


def get_backend(name):
    """The backend *module* for ``name`` (``"numpy"`` | ``"numba"``).

    Raises :class:`ImportError` when the numba backend is requested but
    not importable -- the parity suite uses that to skip cleanly.
    """
    if name == "numpy":
        return numpy_backend
    if name == "numba":
        if _numba_import_error is not None:
            raise ImportError(str(_numba_import_error))
        from repro.graph.kernels import numba_backend

        return numba_backend
    raise ConfigurationError(f"unknown kernel backend {name!r}")


def warm_up():
    """Pre-compile the active backend's kernels (no-op on numpy).

    Call before timing anything: numba's first invocation per signature
    pays the JIT compile (cached on disk afterwards via ``cache=True``).
    """
    if _active is not numpy_backend:
        _active.warm_up()


def backend_info():
    """A flat dict describing the seam state (``repro doctor`` prints it).

    Keys: ``requested`` (the ``REPRO_KERNELS`` value), ``active`` (the
    backend actually serving calls), ``numba_available`` and, when the
    fallback engaged, ``numba_error`` with the import failure.
    """
    info = {
        "requested": REQUESTED,
        "active": BACKEND,
        "numba_available": BACKEND == "numba" or _probe_numba(),
    }
    if _numba_import_error is not None:
        info["numba_error"] = str(_numba_import_error)
    return info


def _probe_numba():
    """Whether numba is importable at all (even when forced off)."""
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


__all__ = [
    "BACKEND",
    "CHOICES",
    "KERNELS",
    "REQUESTED",
    "backend_info",
    "bfs_parents",
    "component_labels",
    "expand_distances",
    "get_backend",
    "multi_source_distances",
    "resolve_forest",
    "unwind_path",
    "warm_up",
]
