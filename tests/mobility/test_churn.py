"""Tests for the churn process and dynamic node sets in the runtime."""

import pytest

from repro.mobility.churn import ChurnProcess
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.monitor import steps_to_legitimacy
from repro.stabilization.predicates import make_stack_predicate
from repro.util.errors import ConfigurationError
from tests.oracles.graph import assert_symmetric


class TestChurnProcess:
    def test_initial_population(self):
        process = ChurnProcess(20, 0.2, 0.1, 2.0, rng=1)
        assert len(process) == 20
        assert set(process.population) == set(range(20))

    def test_epoch_departures_and_arrivals(self):
        process = ChurnProcess(50, 0.2, 0.3, 5.0, rng=2)
        departed, arrived = process.epoch()
        assert set(departed).isdisjoint(process.population)
        assert set(arrived) <= set(process.population)
        # Fresh identifiers are never reused.
        assert all(node >= 50 for node in arrived)

    def test_zero_churn_is_stationary(self):
        process = ChurnProcess(30, 0.2, 0.0, 0.0, rng=3)
        before = dict(process.population)
        departed, arrived = process.epoch()
        assert departed == [] and arrived == []
        assert process.population == before

    def test_population_never_empties(self):
        process = ChurnProcess(3, 0.2, 1.0, 0.0, rng=4)
        for _ in range(5):
            process.epoch()
            assert len(process) >= 1

    def test_topology_snapshot(self):
        process = ChurnProcess(25, 0.3, 0.1, 2.0, rng=5)
        topo = process.topology()
        assert set(topo.graph.nodes) == set(process.population)
        assert_symmetric(topo.graph)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            ChurnProcess(0, 0.2, 0.1, 1.0)
        with pytest.raises(ConfigurationError):
            ChurnProcess(5, 0.2, 1.5, 1.0)
        with pytest.raises(ConfigurationError):
            ChurnProcess(5, 0.2, 0.1, -1.0)

    def test_bare_epoch_rejected_once_dynamics_attached(self):
        process = ChurnProcess(10, 0.3, 0.2, 1.0, rng=32)
        process.epoch()  # fine before any dynamic view exists
        process.dynamics()
        with pytest.raises(ConfigurationError):
            process.epoch()
        process.epoch_update()  # the sanctioned path still works

    def test_dynamics_tracks_scratch_across_epochs(self):
        # Two processes with identical RNG streams: one rebuilds every
        # epoch, the other maintains the delta topology.  Graphs, node
        # order, positions, and CSR layout must match bit for bit.
        scratch = ChurnProcess(25, 0.3, 0.2, 4.0, rng=31)
        delta = ChurnProcess(25, 0.3, 0.2, 4.0, rng=31)
        delta.dynamics()
        for _ in range(6):
            scratch.epoch()
            update = delta.epoch_update()
            reference = scratch.topology()
            maintained = update.topology
            assert maintained.graph.nodes == reference.graph.nodes
            assert {frozenset(e) for e in maintained.graph.edges} == \
                {frozenset(e) for e in reference.graph.edges}
            assert maintained.positions == reference.positions
            ours, theirs = (maintained.graph.to_csr(),
                            reference.graph.to_csr())
            assert ours.ids == theirs.ids
            assert (ours.indptr == theirs.indptr).all()
            assert (ours.indices == theirs.indices).all()


class TestDynamicNodeSets:
    def test_set_topology_adds_and_removes_runtimes(self):
        process = ChurnProcess(30, 0.25, 0.3, 5.0, rng=6)
        sim = StepSimulator(process.topology(), standard_stack(namespace=200),
                            rng=7)
        sim.run(5)
        departed, arrived = process.epoch()
        sim.set_topology(process.topology())
        for node in departed:
            assert node not in sim.runtimes
        for node in arrived:
            assert node in sim.runtimes

    def test_survivors_keep_their_state(self):
        process = ChurnProcess(30, 0.25, 0.2, 3.0, rng=8)
        sim = StepSimulator(process.topology(), standard_stack(namespace=200),
                            rng=9)
        sim.run(10)
        survivors_before = {node: dict(sim.runtime(node).shared)
                            for node in sim.runtimes}
        process.epoch()
        sim.set_topology(process.topology())
        for node in set(sim.runtimes) & set(survivors_before):
            assert sim.runtime(node).shared == survivors_before[node]

    def test_replace_topology_still_strict(self):
        process = ChurnProcess(10, 0.3, 0.5, 2.0, rng=10)
        sim = StepSimulator(process.topology(), standard_stack(namespace=100),
                            rng=11)
        process.epoch()
        with pytest.raises(ConfigurationError):
            sim.replace_topology(process.topology())

    def test_stack_relegitimizes_after_churn(self):
        process = ChurnProcess(35, 0.25, 0.0, 0.0, rng=12)
        sim = StepSimulator(process.topology(), standard_stack(namespace=300),
                            rng=13)
        predicate = make_stack_predicate()
        assert steps_to_legitimacy(sim, predicate, 200).converged
        process.leave_probability = 0.2
        process.arrival_rate = 6.0
        process.epoch()
        sim.set_topology(process.topology())
        report = steps_to_legitimacy(sim, predicate, 200)
        assert report.converged
