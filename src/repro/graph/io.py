"""Graph I/O: edge-list and GML load/save for recorded topologies.

Real-world topologies and recorded mobility snapshots arrive as files,
not generators.  This module round-trips a
:class:`~repro.graph.generators.Topology` through two formats:

* **edge list** (``.edges`` / ``.txt``) -- a commented text format with
  an explicit node section (one ``<node> <tie-id> [<x> <y>]`` line per
  node), so isolated nodes, non-contiguous identifiers and positions
  all survive;
* **GML** (``.gml``) -- the interchange subset real datasets use:
  ``node [ id label graphics [ x y ] ]`` and ``edge [ source target ]``
  blocks, parsed by a small recursive tokenizer that skips unknown
  attributes.

Both loaders rebuild the graph through ``Graph.from_pair_array`` over
index pairs in the file's node order, so a save/load cycle reproduces
the CSR arrays (``indptr`` / ``indices`` / ``ids``) bit for bit -- the
round-trip contract the test suite asserts.  Positions are written with
``repr`` (shortest exact decimal), so float coordinates round-trip
exactly too.

A file either loads or raises :class:`ConfigurationError` naming it
(and, for edge lists, the offending line): bad numbers, NaN or infinite
positions and radii, self-loops, edges to unknown nodes, unterminated
GML strings and non-block GML entries are all reported as malformed
input, never as tracebacks.

Registered as the ``file`` topology scheme:
``--topology file:trace.gml`` (or ``file:path=trace.edges,format=edges``)
feeds a recorded topology to every experiment family.
"""

import math
import os

import numpy as np

from repro.graph.generators import Topology
from repro.graph.graph import Graph
from repro.graph.models.registry import register_topology
from repro.util.errors import ConfigurationError, TopologyError

#: Supported formats, by canonical name.
FORMATS = ("edges", "gml")

_EXTENSIONS = {".edges": "edges", ".txt": "edges", ".gml": "gml"}

_EDGE_LIST_MAGIC = "# repro edge list v1"


def infer_format(path, format=None):
    """Resolve an explicit or extension-inferred format name."""
    if format is not None:
        if format not in FORMATS:
            raise ConfigurationError(
                f"unknown graph format {format!r}; expected one of {FORMATS}"
            )
        return format
    extension = os.path.splitext(str(path))[1].lower()
    if extension in _EXTENSIONS:
        return _EXTENSIONS[extension]
    raise ConfigurationError(
        f"cannot infer graph format from {path!r}; pass format= "
        f"(one of {FORMATS})"
    )


def save_graph(topology, path, format=None):
    """Write ``topology`` to ``path`` in the given or inferred format."""
    format = infer_format(path, format)
    if format == "edges":
        save_edge_list(topology, path)
    else:
        save_gml(topology, path)


def load_graph(path, format=None):
    """Load a :class:`Topology` from ``path`` (format inferred from the
    extension unless given)."""
    format = infer_format(path, format)
    if format == "edges":
        return load_edge_list(path)
    return load_gml(path)


@register_topology("file", geometric=True)
def file_topology(path=None, format=None, rng=None):
    """The ``file`` scheme: load a recorded topology from disk.

    ``rng`` is accepted for registry uniformity and ignored -- a
    recorded topology is deterministic by definition.
    """
    if path is None:
        raise ConfigurationError(
            "the file topology requires path= (e.g. file:trace.gml)"
        )
    if not os.path.exists(path):
        raise ConfigurationError(f"graph file {path!r} does not exist")
    return load_graph(path, format=format)


# ----------------------------------------------------------------------
# node bookkeeping shared by both formats
# ----------------------------------------------------------------------


def _node_token(node):
    """A whitespace-free token for a node identifier that
    :func:`_parse_node` reads back equal to it (ints, and strings that do
    not read as ints)."""
    token = str(node)
    if not token or any(ch.isspace() for ch in token) or _parse_node(token) != node:
        raise ConfigurationError(
            f"node identifier {node!r} cannot be written to a graph file"
        )
    return token


def _parse_node(token):
    """Inverse of :func:`_node_token`: ints come back as ints."""
    try:
        return int(token)
    except ValueError:
        return token


def _tie_token(node, tie):
    """The token of ``node``'s tie identifier, which must read back as an
    equal int."""
    token = str(tie)
    value = _parse_node(token)
    if not isinstance(value, int) or value != tie:
        raise ConfigurationError(
            f"tie identifier {tie!r} of node {node!r} cannot be written to a "
            "graph file"
        )
    return token


def _topology_rows(topology):
    """``(token, tie token, position-or-None)`` per node, in CSR id order.

    Every token is checked here, before a file is opened.
    """
    csr = topology.graph.to_csr()
    positions = topology.positions or None
    return [
        (
            _node_token(node),
            _tie_token(node, topology.ids[node]),
            positions[node] if positions else None,
        )
        for node in csr.ids
    ]


def _malformed(path, message):
    """The loaders' one error: ``message`` about the file at ``path``."""
    return ConfigurationError(f"malformed graph file {str(path)!r}: {message}")


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as error:
        raise _malformed(path, f"not UTF-8 text ({error})") from None
    except OSError as error:
        raise _malformed(path, f"cannot be read ({error.strerror})") from None


def _number(path, value, what, kind=float):
    """``kind(value)`` for a numeric field, or a malformed-file error."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise _malformed(path, f"{what} {value!r} is not a number") from None


def _finite(path, value, what):
    """``value`` if it is a finite number, else a malformed-file error
    (a NaN position would silently drop every edge of its node)."""
    if not math.isfinite(value):
        raise _malformed(path, f"{what} {value!r} is not finite")
    return value


def _assemble(path, nodes, ties, positions, index_pairs, radius=None):
    """Shared loader tail: index pairs -> CSR-first Topology."""
    if len(set(nodes)) != len(nodes):
        raise _malformed(path, "repeats a node identifier")
    try:
        graph = Graph.from_pair_array(
            np.asarray(index_pairs, dtype=np.int64).reshape(-1, 2), nodes
        )
        return Topology(
            graph,
            positions=positions if positions else None,
            ids=dict(zip(nodes, ties)),
            radius=radius,
        )
    except (ConfigurationError, TopologyError) as error:
        raise _malformed(path, error) from None


# ----------------------------------------------------------------------
# edge list
# ----------------------------------------------------------------------


def save_edge_list(topology, path):
    """Write the ``repro edge list v1`` text format.

    Node lines are ``<node> <tie-id>`` plus ``<x> <y>`` when positions
    exist; edge lines are node-*index* pairs in CSR (lexicographic)
    order, so the file is a deterministic function of the topology.
    """
    rows = _topology_rows(topology)
    csr = topology.graph.to_csr()
    row_idx, col_idx = csr.edge_arrays()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_EDGE_LIST_MAGIC + "\n")
        if topology.radius is not None:
            handle.write(f"# radius {topology.radius!r}\n")
        handle.write(f"# nodes {len(rows)}\n")
        for token, tie, position in rows:
            line = f"{token} {tie}"
            if position is not None:
                line += f" {position[0]!r} {position[1]!r}"
            handle.write(line + "\n")
        handle.write(f"# edges {len(row_idx)}\n")
        for u, v in zip(row_idx.tolist(), col_idx.tolist()):
            handle.write(f"{u} {v}\n")


def load_edge_list(path):
    """Load a ``repro edge list v1`` file into a :class:`Topology`."""
    lines = [line.strip() for line in _read_text(path).splitlines()]
    if not lines or lines[0] != _EDGE_LIST_MAGIC:
        raise _malformed(path, f"missing {_EDGE_LIST_MAGIC!r} header")
    radius = None
    nodes, ties, positions = [], [], {}
    edge_lines, index_pairs = [], []
    expected_nodes = expected_edges = None
    section = None
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        where = f"line {number} {line!r}"
        try:
            if line.startswith("#"):
                fields = line[1:].split()
                if fields[:1] == ["radius"]:
                    radius = _finite(path, float(fields[1]), f"{where} radius")
                elif fields[:1] == ["nodes"]:
                    expected_nodes = int(fields[1])
                    section = "nodes"
                elif fields[:1] == ["edges"]:
                    expected_edges = int(fields[1])
                    section = "edges"
                continue
            fields = line.split()
            if section is None:
                raise _malformed(path, f"{where} comes before any section header")
            if len(fields) not in ((2, 4) if section == "nodes" else (2,)):
                raise _malformed(path, f"{where} is a malformed {section[:-1]} line")
            if section == "nodes":
                node = _parse_node(fields[0])
                nodes.append(node)
                ties.append(int(fields[1]))
                if len(fields) == 4:
                    positions[node] = tuple(
                        _finite(path, float(value), f"{where} coordinate")
                        for value in fields[2:]
                    )
            else:
                u, v = int(fields[0]), int(fields[1])
                if u == v:
                    raise _malformed(path, f"{where} is a self-loop")
                edge_lines.append(number)
                index_pairs.append((u, v))
        except (IndexError, ValueError):
            message = f"{where} lacks a value or has a non-number"
            raise _malformed(path, message) from None
    if expected_nodes is not None and expected_nodes != len(nodes):
        message = f"declares {expected_nodes} nodes but lists {len(nodes)}"
        raise _malformed(path, message)
    if expected_edges is not None and expected_edges != len(index_pairs):
        message = f"declares {expected_edges} edges but lists {len(index_pairs)}"
        raise _malformed(path, message)
    for number, (u, v) in zip(edge_lines, index_pairs):
        if not (0 <= u < len(nodes) and 0 <= v < len(nodes)):
            last = len(nodes) - 1
            message = f"line {number} edge {u} {v} names a node outside 0..{last}"
            raise _malformed(path, message)
    return _assemble(path, nodes, ties, positions, index_pairs, radius=radius)


# ----------------------------------------------------------------------
# GML
# ----------------------------------------------------------------------


def save_gml(topology, path):
    """Write the GML interchange subset (AGNet-style).

    Node blocks carry ``id`` (the CSR index), ``label`` (the node
    identifier), ``tie`` (the tie-break identifier) and a ``graphics``
    block when positions exist; edge blocks reference node ids in CSR
    order.
    """
    rows = _topology_rows(topology)
    for token, _tie, _position in rows:
        if '"' in token:
            raise ConfigurationError(
                f"node identifier {token!r} cannot be written to a GML file"
            )
    csr = topology.graph.to_csr()
    row_idx, col_idx = csr.edge_arrays()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("graph [\n  directed 0\n")
        if topology.radius is not None:
            handle.write(f"  radius {topology.radius!r}\n")
        for index, (token, tie, position) in enumerate(rows):
            handle.write("  node [\n")
            handle.write(f"    id {index}\n")
            handle.write(f'    label "{token}"\n')
            handle.write(f"    tie {tie}\n")
            if position is not None:
                handle.write(f"    graphics [ x {position[0]!r} y {position[1]!r} ]\n")
            handle.write("  ]\n")
        for u, v in zip(row_idx.tolist(), col_idx.tolist()):
            handle.write(f"  edge [ source {u} target {v} ]\n")
        handle.write("]\n")


def _tokenize_gml(text):
    """GML token stream: quoted strings stay single tokens."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ConfigurationError("unterminated GML string")
            tokens.append(("str", text[i + 1 : j]))
            i = j + 1
        elif ch in "[]":
            tokens.append((ch, ch))
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "[]":
                j += 1
            tokens.append(("atom", text[i:j]))
            i = j
    return tokens


def _parse_gml_block(tokens, start):
    """Parse ``key value`` entries until ``]``; returns (entries, next).

    Entries are ``(key, value)`` pairs where a value is a string, a
    number, or a nested entry list.  Repeated keys (``node``, ``edge``)
    stay repeated -- GML is a multimap.
    """
    entries = []
    i = start
    while i < len(tokens):
        kind, value = tokens[i]
        if kind == "]":
            return entries, i + 1
        if kind != "atom":
            raise ConfigurationError(f"unexpected GML token {value!r}")
        key = value
        i += 1
        if i >= len(tokens):
            raise ConfigurationError(f"GML key {key!r} has no value")
        kind, value = tokens[i]
        if kind == "[":
            nested, i = _parse_gml_block(tokens, i + 1)
            entries.append((key, nested))
        else:
            entries.append((key, _parse_node(value) if kind == "atom" else value))
            i += 1
    return entries, i


def _gml_lookup(entries, key, default=None):
    for entry_key, value in entries:
        if entry_key == key:
            return value
    return default


def _gml_block(path, key, value):
    """``value`` as the entry list of a ``key [ ... ]`` block."""
    if value is not None and not isinstance(value, list):
        raise _malformed(path, f"GML {key} {value!r} is not a [ ... ] block")
    return value


def _gml_value(path, entries, key):
    """The value of ``key`` in ``entries`` (None when absent), not a block."""
    value = _gml_lookup(entries, key)
    if isinstance(value, list):
        raise _malformed(path, f"GML {key} is a [ ... ] block, not a value")
    return value


def load_gml(path):
    """Load a GML file into a :class:`Topology`.

    Accepts the interchange subset: ``graph [ node [ id ... ] edge [
    source ... target ... ] ]``.  ``label`` (when present) names the
    node, else the numeric ``id`` does; ``tie`` defaults to the node's
    position in file order; unknown attributes are skipped.
    """
    try:
        entries, _ = _parse_gml_block(_tokenize_gml(_read_text(path)), 0)
    except ConfigurationError as error:
        raise _malformed(path, error) from None
    graph_entries = _gml_block(path, "graph", _gml_lookup(entries, "graph"))
    if graph_entries is None:
        raise _malformed(path, "no GML graph block")
    radius = _gml_value(path, graph_entries, "radius")
    if radius is not None:
        radius = _finite(path, _number(path, radius, "radius"), "radius")
    nodes, ties, positions = [], [], {}
    index_of = {}
    edges = []
    for key, value in graph_entries:
        if key == "node":
            value = _gml_block(path, key, value)
            gml_id = _gml_value(path, value, "id")
            if gml_id is None:
                raise _malformed(path, "GML node without id")
            if gml_id in index_of:
                raise _malformed(path, f"repeats GML node id {gml_id!r}")
            label = _gml_value(path, value, "label")
            node = _parse_node(label) if label is not None else gml_id
            tie = _gml_value(path, value, "tie")
            index_of[gml_id] = len(nodes)
            nodes.append(node)
            ties.append(len(ties) if tie is None else _number(path, tie, "tie", int))
            graphics = _gml_block(path, "graphics", _gml_lookup(value, "graphics"))
            if graphics is not None:
                x = _gml_value(path, graphics, "x")
                y = _gml_value(path, graphics, "y")
                if x is not None and y is not None:
                    positions[node] = (
                        _finite(path, _number(path, x, "x"), f"node {gml_id!r} x"),
                        _finite(path, _number(path, y, "y"), f"node {gml_id!r} y"),
                    )
        elif key == "edge":
            value = _gml_block(path, key, value)
            source = _gml_value(path, value, "source")
            target = _gml_value(path, value, "target")
            if source is None or target is None:
                raise _malformed(path, "GML edge without source/target")
            edges.append((source, target))
    index_pairs = []
    for source, target in edges:
        for end in (source, target):
            if end not in index_of:
                raise _malformed(path, f"GML edge references unknown node id {end!r}")
        if source == target:
            raise _malformed(path, f"GML edge from node id {source!r} to itself")
        index_pairs.append((index_of[source], index_of[target]))
    return _assemble(path, nodes, ties, positions, index_pairs, radius=radius)
