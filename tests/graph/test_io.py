"""Round-trip tests for graph I/O (edge list and GML)."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.generators import Topology, figure1_topology, uniform_topology
from repro.graph.graph import Graph
from repro.graph.io import (
    FORMATS,
    file_topology,
    infer_format,
    load_graph,
    save_graph,
)
from repro.graph.models import build_topology_spec
from repro.util.errors import ConfigurationError


def sparse_topology():
    """Isolated node, non-contiguous integer ids, explicit tie-breaks."""
    graph = Graph(nodes=[10, 55, 7, 999], edges=[(55, 7)])
    return Topology(graph, ids={10: 3, 55: 0, 7: 2, 999: 1})


def assert_round_trip(topology, path):
    loaded = load_graph(path)
    left, right = topology.graph.to_csr(), loaded.graph.to_csr()
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    np.testing.assert_array_equal(left.ids, right.ids)
    assert loaded.ids == topology.ids
    assert loaded.positions == topology.positions
    assert loaded.radius == topology.radius
    return loaded


@pytest.mark.parametrize("format", FORMATS)
class TestRoundTrip:
    def test_geometric_uniform(self, tmp_path, format):
        topology = uniform_topology(30, 0.2, rng=4)
        path = tmp_path / f"uniform.{format}"
        save_graph(topology, path, format=format)
        assert_round_trip(topology, path)

    def test_string_node_labels(self, tmp_path, format):
        topology = figure1_topology()
        path = tmp_path / f"fig1.{format}"
        save_graph(topology, path, format=format)
        loaded = assert_round_trip(topology, path)
        assert set(loaded.graph.nodes) == set("abcdefhij")

    def test_isolated_nodes_and_noncontiguous_ids(self, tmp_path, format):
        topology = sparse_topology()
        path = tmp_path / f"sparse.{format}"
        save_graph(topology, path, format=format)
        loaded = assert_round_trip(topology, path)
        assert loaded.graph.degree(999) == 0
        assert loaded.ids[55] == 0

    def test_save_load_save_is_stable(self, tmp_path, format):
        topology = uniform_topology(20, 0.25, rng=9)
        first = tmp_path / f"a.{format}"
        second = tmp_path / f"b.{format}"
        save_graph(topology, first, format=format)
        save_graph(load_graph(first), second, format=format)
        assert first.read_text() == second.read_text()

    def test_combinatorial_graph_without_geometry(self, tmp_path, format):
        topology = build_topology_spec("erdos_renyi:count=40,degree=4,seed=2")
        path = tmp_path / f"er.{format}"
        save_graph(topology, path, format=format)
        loaded = assert_round_trip(topology, path)
        assert loaded.positions == {}
        assert loaded.radius is None


def numbered(nodes, edges=()):
    """A position-free topology with tie ids ``0..n-1`` in node order."""
    return Topology(Graph(nodes=nodes, edges=edges),
                    ids={node: tie for tie, node in enumerate(nodes)})


@pytest.mark.parametrize("format", FORMATS)
class TestIdentifierTokens:
    """An identifier is written only if its token reads back equal to it,
    and every token is checked before the file is opened."""

    @pytest.mark.parametrize("nodes", [
        ["7", "a"], ["a", "07"], [1.5, 2.5], [True, 3], ["a b", "c"],
    ], ids=["int-looking-string", "zero-padded", "float", "bool", "space"])
    def test_identifier_that_reads_back_differently_is_refused(
            self, tmp_path, format, nodes):
        path = tmp_path / f"ids.{format}"
        with pytest.raises(ConfigurationError, match="cannot be written"):
            save_graph(numbered(nodes, [tuple(nodes)]), path, format=format)
        assert not path.exists()

    @pytest.mark.parametrize("tie", [1.5, 2.0, True, "3"])
    def test_tie_identifier_that_reads_back_differently_is_refused(
            self, tmp_path, format, tie):
        topology = Topology(Graph(edges=[(1, 2)]), ids={1: tie, 2: 0})
        path = tmp_path / f"ties.{format}"
        with pytest.raises(ConfigurationError, match="tie identifier"):
            save_graph(topology, path, format=format)
        assert not path.exists()

    def test_string_nodes_need_integer_tie_identifiers(self, tmp_path, format):
        # Topology's default tie identifiers are the node identifiers.
        with pytest.raises(ConfigurationError, match="tie identifier 'a'"):
            save_graph(Topology(Graph(edges=[("a", "b")])),
                       tmp_path / f"t.{format}", format=format)

    def test_refusal_names_the_identifier(self, tmp_path, format):
        with pytest.raises(ConfigurationError, match=re.escape("'07'")):
            save_graph(numbered(["a", 7, "07"]), tmp_path / f"x.{format}",
                       format=format)

    def test_ints_strings_and_numpy_ints_round_trip(self, tmp_path, format):
        nodes = [np.int64(4), "a", 9, "b7", -2, "x-1"]
        topology = numbered(nodes, [(np.int64(4), "a"), ("a", 9), (-2, "x-1")])
        path = tmp_path / f"mixed.{format}"
        save_graph(topology, path, format=format)
        loaded = assert_round_trip(topology, path)
        assert [type(node) for node in loaded.graph.nodes] == \
            [int, str, int, str, int, str]


def test_gml_refuses_a_quote_in_a_label(tmp_path):
    topology = numbered(['a"b', "c"], [('a"b', "c")])
    with pytest.raises(ConfigurationError, match="GML"):
        save_graph(topology, tmp_path / "q.gml")
    assert not (tmp_path / "q.gml").exists()
    save_graph(topology, tmp_path / "q.edges")
    assert_round_trip(topology, tmp_path / "q.edges")


class TestFormatInference:
    def test_extension_mapping(self):
        assert infer_format("trace.edges") == "edges"
        assert infer_format("trace.txt") == "edges"
        assert infer_format("trace.gml") == "gml"
        assert infer_format("TRACE.GML") == "gml"

    def test_explicit_format_wins(self):
        assert infer_format("trace.gml", format="edges") == "edges"

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigurationError):
            infer_format("trace.gml", format="graphml")

    def test_uninferrable_extension_rejected(self):
        with pytest.raises(ConfigurationError):
            infer_format("trace.dat")


class TestFileTopology:
    def test_loads_through_registry(self, tmp_path):
        topology = uniform_topology(15, 0.3, rng=1)
        path = tmp_path / "t.gml"
        save_graph(topology, path)
        via_spec = build_topology_spec(f"file:{path}")
        assert set(via_spec.graph.edges) == set(topology.graph.edges)
        assert via_spec.spec.name == "file"

    def test_missing_path_parameter(self):
        with pytest.raises(ConfigurationError, match="path="):
            file_topology()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            file_topology(path=str(tmp_path / "nope.gml"))


class TestMalformedFiles:
    def test_edge_list_without_magic(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n")
        with pytest.raises(ConfigurationError, match="header"):
            load_graph(path)

    def test_edge_list_node_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("# repro edge list v1\n# nodes 2\na 0\n# edges 0\n")
        with pytest.raises(ConfigurationError, match="declares 2 nodes"):
            load_graph(path)

    def test_edge_list_duplicate_node(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text(
            "# repro edge list v1\n# nodes 2\na 0\na 1\n# edges 0\n")
        with pytest.raises(ConfigurationError, match="repeats"):
            load_graph(path)

    def test_gml_without_graph_block(self, tmp_path):
        path = tmp_path / "bad.gml"
        path.write_text("Creator \"nobody\"\n")
        with pytest.raises(ConfigurationError, match="graph block"):
            load_graph(path)

    def test_gml_edge_to_unknown_node(self, tmp_path):
        path = tmp_path / "bad.gml"
        path.write_text(
            "graph [\n  node [ id 0 ]\n"
            "  edge [ source 0 target 7 ]\n]\n")
        with pytest.raises(ConfigurationError, match="unknown node id"):
            load_graph(path)


EDGE_LIST_HEAD = "# repro edge list v1\n# nodes 2\n0 0\n1 1\n"


class TestMalformedValues:
    """Each malformed file raises a ConfigurationError naming the file
    (and, for edge lists, the line) instead of a traceback."""

    @pytest.mark.parametrize("text,line", [
        ("# repro edge list v1\n# radius\n# nodes 0\n", 2),
        (EDGE_LIST_HEAD + "# edges 1\n0 0\n", 6),
        (EDGE_LIST_HEAD + "# edges 1\n0 5\n", 6),
    ], ids=["radius-without-value", "self-loop", "edge-out-of-range"])
    def test_edge_list(self, tmp_path, text, line):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ConfigurationError) as error:
            load_graph(path)
        assert str(path) in str(error.value)
        assert f"line {line} " in str(error.value)

    @pytest.mark.parametrize("body", [
        "node [ id 0 ] node [ id 1 ] edge [ source 0 target 0 ]",
        'node [ id 0 label "a ]',
        "node [ id 0 tie x ]",
        "radius abc node [ id 0 ]",
        "node [ id 0 graphics [ x abc y 1 ] ]",
        "node 5",
    ], ids=["self-loop", "unterminated-string", "non-numeric-tie",
            "non-numeric-radius", "non-numeric-graphics-x", "node-not-a-block"])
    def test_gml(self, tmp_path, body):
        path = tmp_path / "bad.gml"
        path.write_text(f"graph [\n  {body}\n]\n")
        with pytest.raises(ConfigurationError, match="malformed") as error:
            load_graph(path)
        assert str(path) in str(error.value)


class TestNonFiniteValues:
    """NaN or infinite positions and radii are malformed input: such a
    file used to load, and a unit-disk topology over it had no edges."""

    @pytest.mark.parametrize("text,line", [
        ("# repro edge list v1\n# radius nan\n# nodes 2\n"
         "0 0 0.1 0.5\n1 1 0.2 0.5\n# edges 1\n0 1\n", 2),
        ("# repro edge list v1\n# radius 0.3\n# nodes 2\n"
         "0 0 nan 0.5\n1 1 0.2 0.5\n# edges 1\n0 1\n", 4),
        ("# repro edge list v1\n# radius 0.3\n# nodes 2\n"
         "0 0 0.1 0.5\n1 1 0.2 -inf\n# edges 0\n", 5),
    ], ids=["radius-nan", "x-nan", "y-inf"])
    def test_edge_list(self, tmp_path, text, line):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="not finite") as error:
            load_graph(path)
        assert str(path) in str(error.value)
        assert f"line {line} " in str(error.value)

    @pytest.mark.parametrize("body", [
        "radius nan node [ id 0 ]",
        "radius inf node [ id 0 ]",
        "node [ id 0 graphics [ x nan y 1 ] ]",
        "node [ id 0 graphics [ x 1 y -inf ] ]",
    ], ids=["radius-nan", "radius-inf", "x-nan", "y-inf"])
    def test_gml(self, tmp_path, body):
        path = tmp_path / "bad.gml"
        path.write_text(f"graph [\n  {body}\n]\n")
        with pytest.raises(ConfigurationError, match="not finite") as error:
            load_graph(path)
        assert str(path) in str(error.value)


def _corrupt(text, data):
    """``text`` truncated, or with a span replaced by drawn characters."""
    cut = data.draw(st.integers(0, len(text)), label="cut")
    if data.draw(st.booleans(), label="truncate"):
        return text[:cut]
    stop = data.draw(st.integers(cut, min(cut + 8, len(text))), label="stop")
    junk = data.draw(st.text(alphabet='0123456789-.e#[]" xyabn\n', max_size=8),
                     label="junk")
    return text[:cut] + junk + text[stop:]


@pytest.mark.parametrize("format", FORMATS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_truncated_or_corrupted_file_loads_or_raises(tmp_path, format, data):
    topology = uniform_topology(6, 0.5, rng=3)
    path = tmp_path / f"fuzz.{format}"
    save_graph(topology, path, format=format)
    path.write_text(_corrupt(path.read_text(), data))
    try:
        loaded = load_graph(path, format=format)
    except ConfigurationError as error:
        assert str(path) in str(error)
    else:
        assert set(loaded.ids) == set(loaded.graph.nodes)


class TestForeignGml:
    def test_minimal_third_party_gml(self, tmp_path):
        # No labels, no ties, unknown attributes: the interchange case.
        path = tmp_path / "foreign.gml"
        path.write_text(
            "# exported elsewhere\n"
            "graph [\n"
            "  directed 0\n"
            "  comment \"two nodes one edge\"\n"
            "  node [ id 4 value 1.5 ]\n"
            "  node [ id 9 ]\n"
            "  edge [ source 4 target 9 weight 2 ]\n"
            "]\n")
        topology = load_graph(path)
        assert set(topology.graph.nodes) == {4, 9}
        assert topology.graph.degree(4) == 1
        assert topology.ids == {4: 0, 9: 1}  # file-order tie default
