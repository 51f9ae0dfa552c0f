"""Tests for the non-UDG topology generator suite and its registry."""

import math

import numpy as np
import pytest

from repro.graph.generators import Topology
from repro.graph.models import (
    TopologySpec,
    accepted_parameters,
    as_topology_spec,
    build_topology_spec,
    degree_parameters,
    distance_rule_topology,
    erdos_renyi_topology,
    fixed_degree_topology,
    gaussian_degree_topology,
    is_geometric,
    nw_small_world_topology,
    register_topology,
    registered_topologies,
    scale_free_topology,
    topology_for,
)
from repro.util.errors import ConfigurationError
from tests.oracles.graph import assert_symmetric

GENERATORS = {
    "distance_rule": distance_rule_topology,
    "erdos_renyi": erdos_renyi_topology,
    "fixed_degree": fixed_degree_topology,
    "gaussian_degree": gaussian_degree_topology,
    "nw_small_world": nw_small_world_topology,
    "scale_free": scale_free_topology,
}


def csr_triple(topology):
    csr = topology.graph.to_csr()
    return csr.indptr, csr.indices, csr.ids


def mean_degree(topology):
    graph = topology.graph
    return 2.0 * graph.edge_count() / len(graph)


class TestGeneratorBasics:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_node_count_and_symmetry(self, name):
        topo = GENERATORS[name](200, degree=6, rng=3)
        assert len(topo.graph) == 200
        assert_symmetric(topo.graph)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_mean_degree_tracks_target(self, name):
        topo = GENERATORS[name](400, degree=8, rng=11)
        # Wide tolerance: border effects (distance_rule), rounding to an
        # integer lattice parameter (small world, scale free).
        assert 4.0 <= mean_degree(topo) <= 12.0

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_same_seed_bit_identical(self, name):
        a = csr_triple(GENERATORS[name](150, degree=5, rng=7))
        b = csr_triple(GENERATORS[name](150, degree=5, rng=7))
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_streaming_chunks_bit_identical(self, name):
        full = csr_triple(GENERATORS[name](150, degree=5, rng=7))
        chunked = csr_triple(
            GENERATORS[name](150, degree=5, rng=7, max_pairs=17))
        for left, right in zip(full, chunked):
            np.testing.assert_array_equal(left, right)

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_rejects_nonpositive_count(self, name):
        with pytest.raises(ConfigurationError):
            GENERATORS[name](0, degree=4)

    def test_distance_rule_attaches_positions(self):
        topo = distance_rule_topology(100, degree=6, rng=2)
        assert set(topo.positions) == set(topo.graph.nodes)
        assert topo.radius is not None

    def test_combinatorial_models_have_no_geometry(self):
        topo = erdos_renyi_topology(50, degree=4, rng=2)
        assert topo.positions == {}
        assert topo.radius is None


class TestParameterValidation:
    def test_erdos_renyi_needs_p_or_degree(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi_topology(50)

    def test_erdos_renyi_rejects_conflicting_p_and_degree(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi_topology(50, p=0.1, degree=4)

    def test_erdos_renyi_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError):
            erdos_renyi_topology(50, p=1.5)

    def test_distance_rule_rejects_unknown_decay(self):
        with pytest.raises(ConfigurationError):
            distance_rule_topology(50, degree=4, decay="cubic")

    def test_fixed_degree_needs_feasible_degree(self):
        with pytest.raises(ConfigurationError):
            fixed_degree_topology(4, degree=5)

    def test_nw_small_world_rejects_conflicting_k_and_degree(self):
        with pytest.raises(ConfigurationError):
            nw_small_world_topology(50, k=2, degree=6)

    def test_scale_free_rejects_conflicting_m_and_degree(self):
        with pytest.raises(ConfigurationError):
            scale_free_topology(50, m=2, degree=6)


class TestRegistry:
    def test_all_generators_registered(self):
        names = registered_topologies()
        for name in GENERATORS:
            assert name in names
        for name in ("figure1", "line", "ring", "star", "complete",
                     "poisson", "uniform", "file"):
            assert name in names

    def test_topology_for_unknown_name(self):
        with pytest.raises(ConfigurationError, match="registered generators"):
            topology_for("no_such_model")

    def test_geometric_flag(self):
        assert is_geometric("distance_rule")
        assert is_geometric("figure1")
        assert not is_geometric("erdos_renyi")

    def test_degree_parameters_metadata(self):
        assert degree_parameters("erdos_renyi") == ("p",)
        assert degree_parameters("nw_small_world") == ("k",)
        assert degree_parameters("scale_free") == ("m",)
        assert degree_parameters("line") == ()

    def test_accepted_parameters_exclude_rng(self):
        params = accepted_parameters("erdos_renyi")
        assert "rng" not in params
        assert "count" in params and "p" in params

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ConfigurationError):
            @register_topology("erdos_renyi")
            def clash(count=None, rng=None):  # pragma: no cover
                raise AssertionError

    def test_spec_parse_and_round_trip(self):
        spec = as_topology_spec("erdos_renyi:count=50,degree=4,seed=9")
        assert spec.name == "erdos_renyi"
        assert spec.param_dict() == {"count": 50, "degree": 4}
        assert spec.seed == 9
        assert as_topology_spec(str(spec)) == spec

    def test_file_spec_bare_path_shorthand(self):
        spec = as_topology_spec("file:/tmp/trace.gml")
        assert spec.name == "file"
        assert spec.param_dict() == {"path": "/tmp/trace.gml"}

    def test_build_spec_attaches_spec_and_seed_determinism(self):
        spec = "nw_small_world:count=80,degree=4,seed=5"
        a = build_topology_spec(spec)
        b = build_topology_spec(spec)
        assert isinstance(a.spec, TopologySpec)
        assert str(a.spec) == "nw_small_world:count=80,degree=4,seed=5"
        assert set(a.graph.edges) == set(b.graph.edges)

    def test_build_spec_rng_overrides_seed(self):
        spec = "erdos_renyi:count=60,degree=4,seed=5"
        default = build_topology_spec(spec)
        overridden = build_topology_spec(spec, rng=123)
        assert set(default.graph.edges) != set(overridden.graph.edges)

    def test_build_spec_reports_accepted_parameters(self):
        with pytest.raises(ConfigurationError, match="accepted parameters"):
            build_topology_spec("erdos_renyi:count=50,degree=4,bogus=1")

    def test_topology_build_classmethod(self):
        topo = Topology.build("ring:count=6")
        assert len(topo.graph) == 6
        assert all(topo.graph.degree(n) == 2 for n in topo.graph)


class TestScaleFreeShape:
    def test_degree_distribution_is_skewed(self):
        topo = scale_free_topology(500, m=3, rng=13)
        degrees = sorted(topo.graph.degree(n) for n in topo.graph)
        assert degrees[-1] >= 4 * (sum(degrees) / len(degrees))
        assert degrees[0] >= 1

    def test_connected_by_construction(self):
        from repro.graph.paths import connected_components
        topo = scale_free_topology(200, m=2, rng=4)
        assert len(connected_components(topo.graph)) == 1


class TestSmallWorldShape:
    def test_lattice_backbone_present(self):
        # NW adds shortcuts but never removes lattice edges.
        topo = nw_small_world_topology(60, k=2, p=0.2, rng=8)
        edges = set(topo.graph.edges)
        for i in range(60):
            for offset in (1, 2):
                u, v = i, (i + offset) % 60
                assert (min(u, v), max(u, v)) in edges

    def test_zero_rewiring_is_pure_lattice(self):
        topo = nw_small_world_topology(40, k=3, p=0.0, rng=8)
        assert topo.graph.edge_count() == 40 * 3


class TestDistanceRuleDecay:
    def test_exp_and_linear_differ(self):
        exp = csr_triple(distance_rule_topology(150, degree=6, rng=3,
                                                decay="exp"))
        linear = csr_triple(distance_rule_topology(150, degree=6, rng=3,
                                                   decay="linear"))
        assert not np.array_equal(exp[1], linear[1])

    def test_linear_cutoff_bounds_radius(self):
        topo = distance_rule_topology(150, degree=6, rng=3, decay="linear")
        scale = topo.radius
        positions = topo.positions
        for u, v in topo.graph.edges:
            assert math.dist(positions[u], positions[v]) <= scale + 1e-12
