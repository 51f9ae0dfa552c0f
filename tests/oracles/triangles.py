"""Triangle-count oracles: one mark vector per probed endpoint, and the
per-edge common-neighbor scan behind Definition 1's densities.

:meth:`repro.graph.csr.CSRAdjacency.triangle_counts` marks the forward
lists of a whole block of probed endpoints in one ``block x n`` boolean
matrix and expands candidates in budgeted chunks.  This is the loop it
replaced, kept as the definition it must equal: the same degree
orientation and the same "candidates from the smaller forward list"
rule, with one boolean mark vector set, read and cleared per probed
endpoint, and one edge at a time.

:func:`repro.clustering.density.all_densities` reads degrees and those
triangle counts off the graph's CSR snapshot; :func:`all_densities` here
is the dict-backend scan it replaced, with no NumPy at all.
"""

from fractions import Fraction

import numpy as np

from repro.clustering.density import ISOLATED_DENSITY


def triangle_counts(csr):
    """Per-row triangle counts of ``csr``, as an ``int64`` array."""
    n = len(csr)
    degrees = csr.degrees()
    row = np.repeat(np.arange(n, dtype=np.int64), degrees)
    col = csr.indices.astype(np.int64)
    # Degree-ascending rank, ties by index; edges point up the ranking.
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[np.lexsort((np.arange(n), degrees))] = np.arange(n)
    forward = rank_of[col] > rank_of[row]
    eu = row[forward]
    ev = col[forward]
    fdeg = np.bincount(eu, minlength=n)
    findptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fdeg, out=findptr[1:])

    def forward_list(u):
        return ev[findptr[u]:findptr[u + 1]]

    take_v = fdeg[ev] < fdeg[eu]
    small = np.where(take_v, ev, eu)
    other = np.where(take_v, eu, ev)
    order = np.argsort(other, kind="stable")
    small = small[order].tolist()
    other = other[order].tolist()
    tri = np.zeros(n, dtype=np.int64)
    mark = np.zeros(n, dtype=bool)
    start = 0
    while start < len(other):
        probed = other[start]
        end = start
        while end < len(other) and other[end] == probed:
            end += 1
        mark[forward_list(probed)] = True
        for u in small[start:end]:
            candidates = forward_list(u)
            corners = candidates[mark[candidates]]
            tri[corners] += 1
            tri[u] += corners.size
            tri[probed] += corners.size
        mark[forward_list(probed)] = False
        start = end
    return tri


def all_densities(graph, exact=False):
    """Density of every node by one common-neighbor scan per edge.

    Each edge between two neighbors of ``w`` is a triangle through
    ``w``; ``O(m * delta)`` total time.  Same result as
    :func:`repro.clustering.density.all_densities` (a dict here).
    """
    triangles = {node: 0 for node in graph}
    for u, v in graph.edges:
        nu = graph.neighbors(u)
        nv = graph.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        for w in nu:
            if w in nv:
                # w sees edge (u, v) inside its neighborhood.
                triangles[w] += 1
    result = {}
    for node in graph:
        deg = graph.degree(node)
        if deg == 0:
            result[node] = Fraction(0) if exact else ISOLATED_DENSITY
            continue
        value = Fraction(deg + triangles[node], deg)
        result[node] = value if exact else float(value)
    return result
