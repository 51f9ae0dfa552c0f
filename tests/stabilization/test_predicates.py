"""Tests for the legitimacy predicates."""

import pytest

from repro.graph.generators import line_topology, uniform_topology
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.predicates import (
    GroundTruth,
    clustering_legitimate,
    densities_legitimate,
    make_stack_predicate,
    naming_legitimate,
    neighborhood_accurate,
    stack_legitimate,
    two_hop_accurate,
)


@pytest.fixture
def converged_sim(random50):
    sim = StepSimulator(random50, standard_stack(topology=random50), rng=3)
    sim.run(40)
    return sim


class TestLayerPredicates:
    def test_fresh_boot_is_illegitimate(self, random50):
        sim = StepSimulator(random50, standard_stack(topology=random50),
                            rng=3)
        assert not neighborhood_accurate(sim)
        assert not densities_legitimate(sim)
        assert not stack_legitimate(sim)

    def test_converged_state_is_legitimate(self, converged_sim):
        assert neighborhood_accurate(converged_sim)
        assert two_hop_accurate(converged_sim)
        assert naming_legitimate(converged_sim)
        assert densities_legitimate(converged_sim)
        assert clustering_legitimate(converged_sim)
        assert stack_legitimate(converged_sim)

    def test_neighborhood_detects_ghost_cache(self, converged_sim):
        from repro.runtime.node import CacheEntry
        node = next(iter(converged_sim.graph))
        converged_sim.runtime(node).caches["ghost"] = CacheEntry(
            payload={}, refreshed_at=converged_sim.now)
        assert not neighborhood_accurate(converged_sim)

    def test_naming_detects_duplicate(self, converged_sim):
        graph = converged_sim.graph
        u, v = next(iter(graph.edges))
        converged_sim.runtime(u).shared["dag_id"] = \
            converged_sim.runtime(v).shared["dag_id"]
        assert not naming_legitimate(converged_sim)

    def test_naming_detects_missing_name(self, converged_sim):
        node = next(iter(converged_sim.graph))
        converged_sim.runtime(node).shared["dag_id"] = None
        assert not naming_legitimate(converged_sim)

    def test_density_detects_corruption(self, converged_sim):
        node = next(iter(converged_sim.graph))
        converged_sim.runtime(node).shared["density"] = 99
        assert not densities_legitimate(converged_sim)

    def test_clustering_detects_wrong_head(self, converged_sim):
        node = next(iter(converged_sim.graph))
        converged_sim.runtime(node).shared["head"] = "nonsense"
        assert not clustering_legitimate(converged_sim)


class TestIncumbentLegitimacy:
    def test_incumbent_fixpoint_is_legitimate(self):
        topo = uniform_topology(40, 0.25, rng=8)
        sim = StepSimulator(topo,
                            standard_stack(topology=topo, order="incumbent"),
                            rng=4)
        sim.run(40)
        assert clustering_legitimate(sim, order="incumbent")

    def test_reused_truth_follows_claimed_heads(self):
        # Two stationary states of one snapshot: on a 2-node line both
        # endpoints have density 1, so whichever claims headship keeps it.
        # A truth reused across them must re-solve when the claim moves.
        sim = StepSimulator(line_topology(2),
                            standard_stack(use_dag=False, order="incumbent"),
                            rng=0)
        truth = GroundTruth(sim.graph)
        for head, member in ((0, 1), (1, 0)):
            sim.runtime(head).shared.update(head=head, parent=head)
            sim.runtime(member).shared.update(head=head, parent=head)
            assert clustering_legitimate(sim, order="incumbent",
                                         use_dag=False, truth=truth)

    def test_no_dag_stack_legitimate(self):
        topo = line_topology(5)
        sim = StepSimulator(topo, standard_stack(use_dag=False), rng=0)
        sim.run(15)
        assert stack_legitimate(sim, use_dag=False)


class TestMakeStackPredicate:
    def test_binds_configuration(self, converged_sim):
        predicate = make_stack_predicate()
        assert predicate(converged_sim)
        assert "basic" in predicate.__name__

    def test_callable_signature(self, converged_sim):
        predicate = make_stack_predicate(use_dag=True, fusion=False)
        assert predicate(converged_sim) is True
