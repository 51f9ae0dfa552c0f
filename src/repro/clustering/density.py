"""The density metric of Definition 1.

For a node ``p`` with neighborhood ``Np``::

    d_p = |{e = (v, w) in E : w in {p} u Np and v in Np}| / |Np|

The numerator counts each edge from ``p`` to a neighbor plus each edge
between two neighbors of ``p`` (each undirected edge once).  Since every
edge of the second kind closes a triangle through ``p``, the density
rewrites as ``1 + triangles(p) / |Np|``.

:func:`all_densities` computes the triangle counts on the graph's frozen
CSR snapshot (:meth:`~repro.graph.graph.Graph.to_csr`) with vectorized
forward-list intersections, so the 1000-10000-node evaluation workloads
run at array speed; the snapshot (and its memoized triangle counts) is
reused across calls until the graph is rebased onto another.  Densities
are ratios of integers, so the ``exact=True`` path returns them as a
:class:`~repro.graph.dynamic.DensityMap` over the snapshot's degree and
triangle arrays: a read-only mapping that builds each
:class:`~fractions.Fraction` on lookup, and whose ``float_image`` the
election ranks with directly.

Isolated nodes have ``|Np| = 0``; Definition 1 is then undefined and this
module defines their density as ``0.0`` (DESIGN.md, deviation 2).
"""

from fractions import Fraction

import numpy as np

from repro.graph.dynamic import DensityMap
from repro.util.errors import TopologyError

ISOLATED_DENSITY = 0.0

# Node count up to which the float64 image of the exact rational
# densities is guaranteed injective, making float ranking exact: every
# density is ``(deg + tri) / deg`` with numerator below ``n**2`` and
# denominator below ``n``, so distinct values differ by at least
# ``1/n**2`` while float spacing at the values' magnitude stays below
# ``n * 2**-52``.  Beyond this bound two distinct Fractions *may* share
# a float, and consumers that need the exact order must refine float
# ties (see ``clustering.incremental``).
FLOAT_EXACT_LIMIT = 100_000


def density_float_image(degrees, triangles):
    """Float64 densities from integer degree/triangle arrays.

    The shared fast-path kernel: ``(deg + tri) / deg`` in one vectorized
    expression, with isolated rows (``deg == 0``) pinned to
    :data:`ISOLATED_DENSITY` on every backend.  Each value is the
    correctly-rounded float of the exact Fraction (one IEEE division of
    two exact int64s), so rounding is monotone in the exact order --
    the property the float ranking fast paths build on.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    triangles = np.asarray(triangles, dtype=np.int64)
    return np.where(
        degrees > 0,
        (degrees + triangles) / np.maximum(degrees, 1),
        ISOLATED_DENSITY,
    )


def float_tie_mask(values):
    """Boolean mask of entries sharing their float value with another.

    Only at these entries can float ranking disagree with the exact
    Fraction order (and then only above :data:`FLOAT_EXACT_LIMIT`);
    the mask is the guard the fast paths use before falling back to
    Fractions.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    same = sorted_values[1:] == sorted_values[:-1]
    tied_sorted = np.zeros(len(values), dtype=bool)
    tied_sorted[1:] |= same
    tied_sorted[:-1] |= same
    tied = np.empty(len(values), dtype=bool)
    tied[order] = tied_sorted
    return tied


def density(graph, node, exact=False):
    """Density of a single node.

    With ``exact=True`` the value is returned as a :class:`~fractions.Fraction`
    so equality comparisons (the tie-break cases) are free of floating-point
    noise; the default returns a ``float``.
    """
    neighbors = graph.neighbors(node)
    if not neighbors:
        return Fraction(0) if exact else ISOLATED_DENSITY
    links = len(neighbors) + edges_among(graph, neighbors)
    value = Fraction(links, len(neighbors))
    return value if exact else float(value)


def edges_among(graph, nodes):
    """Number of edges with both endpoints in ``nodes`` (each counted once).

    Each edge is claimed by its lower-ranked endpoint, so the scan
    allocates no per-edge sets and works for any hashable identifiers.
    Ranks come from ``dict.fromkeys``: one deduplicating pass that keeps
    the caller's first-seen order, instead of enumerating a freshly built
    (hash-ordered) set.
    """
    rank = {u: i for i, u in enumerate(dict.fromkeys(nodes))}
    count = 0
    for u, i in rank.items():
        for v in graph.neighbors(u):
            j = rank.get(v)
            if j is not None and i < j:
                count += 1
    return count


def all_densities(graph, exact=False):
    """Density of every node, via CSR triangle counting.

    The float path (default) returns ``dict[node, float]`` in insertion
    order.  ``exact=True`` returns a
    :class:`~repro.graph.dynamic.DensityMap` over the snapshot's
    ``degrees()`` and memoized triangle counts: a read-only mapping in
    the same order whose lookups are ``Fraction(deg + tri, deg)``, and
    whose ``float_image`` holds the float path's values as an array.
    Both equal calling :func:`density` per node, bit for bit (both
    divide the same machine integers); a reader that looks every value
    up repeatedly should copy the map into a dict once.
    """
    csr = graph.to_csr()
    degrees = csr.degrees()
    triangles = csr.triangle_counts()
    if exact:
        return DensityMap(csr.ids, degrees, triangles)
    values = density_float_image(degrees, triangles)
    return dict(zip(csr.ids, values.tolist()))


def density_bounds(degree):
    """Tight bounds ``(low, high)`` on the density of a degree-``degree`` node.

    A non-isolated node has at least its own ``degree`` links (density 1)
    and at most additionally all ``degree * (degree - 1) / 2`` links among
    its neighbors.
    """
    if degree < 0:
        raise TopologyError(f"degree must be non-negative, got {degree}")
    if degree == 0:
        return (ISOLATED_DENSITY, ISOLATED_DENSITY)
    return (1.0, 1.0 + (degree - 1) / 2.0)
