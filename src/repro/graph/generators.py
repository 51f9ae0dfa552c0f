"""Topology generators used by the paper's evaluation.

Three workloads appear in Section 5:

* random geometric graphs: nodes from a Poisson point process of intensity
  ``λ`` in the unit square, linked within transmission range ``R``
  (:func:`poisson_topology`);
* a regular grid whose identifiers increase left-to-right and bottom-to-top,
  the adversarial case for identifier tie-breaking (:func:`grid_topology`);
* the 9-node illustrative example of Figure 1 / Table 1
  (:func:`figure1_topology`).

Small deterministic shapes (line, ring, star, complete) are provided for
tests and examples.

All geometric generators funnel through :func:`~repro.graph.geometry.
unit_disk_graph`, which ingests the vectorized ``pairs_within_range``
array with ``Graph.from_pair_array`` -- graphs arrive with their CSR
snapshot already attached, so the density pass that follows in every
evaluation workload starts at array speed.
"""

import math

import numpy as np

from repro.graph.geometry import unit_disk_graph
from repro.graph.graph import Graph
from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng

class Topology:
    """A graph plus the geometric and naming context it was built in.

    Attributes
    ----------
    graph:
        The connectivity :class:`~repro.graph.graph.Graph`.
    positions:
        ``dict[node, (x, y)]``; empty for purely combinatorial shapes.
    ids:
        ``dict[node, int]`` -- the "normal" unique identifier of each node,
        used for tie-breaking.  For integer-labeled topologies this is the
        identity mapping.
    radius:
        Transmission range used to build the unit-disk edges (``None`` for
        combinatorial shapes).
    spec:
        The :class:`~repro.graph.models.registry.TopologySpec` this
        topology was built from, when it came through the registry
        (``None`` for directly constructed topologies).
    """

    def __init__(self, graph, positions=None, ids=None, radius=None,
                 spec=None):
        self.graph = graph
        self.positions = dict(positions or {})
        if ids is None:
            ids = {node: node for node in graph}
        self.ids = dict(ids)
        self.radius = radius
        self.spec = spec
        self._validate()

    @classmethod
    def build(cls, spec, rng=None):
        """Build a topology from a spec string or ``TopologySpec``.

        ``spec`` is anything ``TopologySpec.parse`` accepts (e.g.
        ``"erdos_renyi:count=300,degree=6,seed=7"``); ``rng`` overrides
        the spec's own seed when given.  The built topology carries the
        resolved spec on its ``spec`` attribute.
        """
        from repro.graph.models.registry import build_topology_spec

        return build_topology_spec(spec, rng=rng)

    def _validate(self):
        if set(self.ids) != set(self.graph.nodes):
            raise ConfigurationError("ids must cover exactly the graph's nodes")
        if len(set(self.ids.values())) != len(self.ids):
            raise ConfigurationError("normal identifiers must be unique")
        if self.positions and set(self.positions) != set(self.graph.nodes):
            raise ConfigurationError("positions must cover exactly the graph's nodes")

    def __repr__(self):
        return (f"Topology(n={len(self.graph)}, m={self.graph.edge_count()}, "
                f"radius={self.radius})")


# ----------------------------------------------------------------------
# Paper workloads
# ----------------------------------------------------------------------

def poisson_topology(intensity, radius, *, rng=None, side=1.0):
    """Random geometric graph from a Poisson point process.

    The number of nodes is drawn from ``Poisson(intensity * side**2)`` and
    positions are i.i.d. uniform in the ``side x side`` square, which is the
    standard construction of a Poisson process restricted to a window.
    Identifiers ``0..n-1`` are assigned in draw order, so they are
    homogeneously distributed with respect to geometry (the "well
    distributed" case of Section 5).
    """
    if intensity <= 0:
        raise ConfigurationError(f"intensity must be positive, got {intensity}")
    rng = as_rng(rng)
    count = int(rng.poisson(intensity * side * side))
    return uniform_topology(count, radius, rng=rng, side=side)


def uniform_topology(count, radius, *, rng=None, side=1.0):
    """``count`` uniformly placed nodes in a ``side x side`` square."""
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    rng = as_rng(rng)
    positions = rng.uniform(0.0, side, size=(count, 2))
    graph, positions_by_id = unit_disk_graph(positions, radius)
    return Topology(graph, positions=positions_by_id, radius=radius)


def grid_topology(rows, cols, radius, side=1.0):
    """Regular grid in the unit square with row-major increasing ids.

    Node ``(col, row)`` sits at ``(col * sx, row * sy)`` where the spacings
    stretch the grid across the ``side x side`` square, and carries identifier
    ``row * cols + col`` -- i.e. ids increase left to right and bottom to top,
    exactly the adversarial distribution of Section 5 / Table 5.
    """
    if rows < 1 or cols < 1:
        raise ConfigurationError("grid needs at least one row and one column")
    sx = side / (cols - 1) if cols > 1 else 0.0
    sy = side / (rows - 1) if rows > 1 else 0.0
    positions = np.array([(col * sx, row * sy)
                          for row in range(rows) for col in range(cols)])
    node_ids = [row * cols + col for row in range(rows) for col in range(cols)]
    graph, positions_by_id = unit_disk_graph(positions, radius, node_ids=node_ids)
    return Topology(graph, positions=positions_by_id, radius=radius)


def square_grid_topology(approx_count, radius, side=1.0):
    """The most-square grid with roughly ``approx_count`` nodes.

    Table 5 uses "1000 nodes on a grid"; ``square_grid_topology(1000, R)``
    yields a 32x31 = 992-node grid, the closest near-square factorization.
    """
    if approx_count < 1:
        raise ConfigurationError("approx_count must be >= 1")
    rows = max(int(round(math.sqrt(approx_count))), 1)
    # The floor on cols guards the rounding: a request for >= 2 nodes
    # must never collapse to a single-node grid.
    min_cols = 2 if approx_count >= 2 and rows == 1 else 1
    cols = max(int(round(approx_count / rows)), min_cols)
    return grid_topology(rows, cols, radius, side=side)


_FIGURE1_EDGES = (
    ("a", "d"), ("a", "i"),
    ("b", "c"), ("b", "d"), ("b", "h"), ("b", "i"),
    ("h", "i"),
    ("d", "f"), ("d", "j"),
    ("f", "j"),
    ("e", "i"),
)

# The paper assumes node j's identifier is smaller than node f's ("Let's
# assume that node j has the smallest Id"); every other tie is unconstrained,
# so the remaining letters keep alphabetical order.
_FIGURE1_IDS = {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4, "j": 5, "f": 6,
                "h": 7, "i": 8}

# Hand layout mirroring Figure 1 (used only for ASCII rendering).
_FIGURE1_POSITIONS = {
    "h": (0.15, 0.90), "b": (0.30, 0.90), "e": (0.70, 0.90),
    "d": (0.45, 0.70),
    "i": (0.25, 0.55), "a": (0.40, 0.55),
    "f": (0.30, 0.35),
    "j": (0.25, 0.15),
    "c": (0.60, 0.10),
}


def figure1_topology():
    """The illustrative 9-node example of Figure 1 / Table 1.

    The paper gives per-node neighbor and link counts rather than an edge
    list; this edge set is the (unique up to relabeling) reconstruction that
    reproduces every row of Table 1, which the test suite checks exactly.
    """
    graph = Graph(nodes=_FIGURE1_IDS, edges=_FIGURE1_EDGES)
    return Topology(graph, positions=_FIGURE1_POSITIONS, ids=_FIGURE1_IDS)


# ----------------------------------------------------------------------
# Deterministic shapes for tests and examples
# ----------------------------------------------------------------------

def line_topology(count):
    """A path ``0 - 1 - ... - count-1``."""
    if count < 1:
        raise ConfigurationError("line needs at least one node")
    edges = [(i, i + 1) for i in range(count - 1)]
    return Topology(Graph(nodes=range(count), edges=edges))


def ring_topology(count):
    """A cycle over ``count >= 3`` nodes."""
    if count < 3:
        raise ConfigurationError("ring needs at least three nodes")
    edges = [(i, (i + 1) % count) for i in range(count)]
    return Topology(Graph(nodes=range(count), edges=edges))


def star_topology(leaves):
    """Node 0 linked to ``leaves`` leaf nodes ``1..leaves``."""
    if leaves < 1:
        raise ConfigurationError("star needs at least one leaf")
    edges = [(0, i) for i in range(1, leaves + 1)]
    return Topology(Graph(nodes=range(leaves + 1), edges=edges))


def complete_topology(count):
    """The complete graph on ``count`` nodes."""
    if count < 1:
        raise ConfigurationError("complete graph needs at least one node")
    pairs = np.column_stack(np.triu_indices(count, k=1))
    return Topology(Graph.from_pair_array(pairs, count))
