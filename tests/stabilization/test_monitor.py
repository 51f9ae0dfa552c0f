"""Tests for convergence/closure measurement."""

import pytest

from repro.graph.generators import line_topology, uniform_topology
from repro.protocols.stack import standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.faults import garbage_shared
from repro.stabilization.monitor import (
    StabilizationReport,
    recovery_time,
    steps_to_legitimacy,
    verify_closure,
)
from repro.stabilization.predicates import make_stack_predicate
from repro.util.errors import ConfigurationError


def fresh_sim(seed=0):
    topo = uniform_topology(30, 0.3, rng=seed)
    return StepSimulator(topo, standard_stack(topology=topo), rng=seed), topo


class TestStepsToLegitimacy:
    def test_converges_and_reports(self):
        sim, _ = fresh_sim()
        report = steps_to_legitimacy(sim, make_stack_predicate(), 200)
        assert report.converged
        assert 1 <= report.steps <= 200

    def test_budget_exhaustion_reported_not_raised(self):
        sim, _ = fresh_sim()
        report = steps_to_legitimacy(sim, lambda s: False, 5)
        assert not report.converged
        assert report.steps == 5

    def test_report_str(self):
        report = StabilizationReport(steps=4, converged=True, budget=10)
        assert "converged in 4/10 steps" in str(report)
        report = StabilizationReport(steps=10, converged=False, budget=10)
        assert "DID NOT CONVERGE" in str(report)

    def test_settle_below_one_raises(self):
        # settle=0 used to pass as settle=1; a report would hide the typo.
        sim, _ = fresh_sim()
        with pytest.raises(ConfigurationError, match="settle"):
            steps_to_legitimacy(sim, make_stack_predicate(), 200, settle=0)

    def test_measures_relative_to_current_time(self):
        sim, _ = fresh_sim()
        predicate = make_stack_predicate()
        steps_to_legitimacy(sim, predicate, 200)
        # Already legitimate: measuring again takes a single settle step.
        report = steps_to_legitimacy(sim, predicate, 50)
        assert report.steps <= 2


class TestVerifyClosure:
    def test_closure_holds_on_ideal_channel(self):
        sim, _ = fresh_sim()
        predicate = make_stack_predicate()
        steps_to_legitimacy(sim, predicate, 200)
        assert verify_closure(sim, predicate, 10) == 10

    def test_requires_legitimate_start(self):
        sim, _ = fresh_sim()
        with pytest.raises(AssertionError):
            verify_closure(sim, lambda s: False, 5)

    def test_detects_violation(self):
        topo = line_topology(3)
        sim = StepSimulator(topo, standard_stack(use_dag=False), rng=0)
        sim.run(10)
        flag = {"trip": False}

        def predicate(s):
            return not flag["trip"]

        # Predicate flips mid-check: closure must report the violation.
        original_step = sim.step

        def tripping_step():
            flag["trip"] = True
            return original_step()

        sim.step = tripping_step
        with pytest.raises(AssertionError):
            verify_closure(sim, predicate, 5)


class TestRecoveryTime:
    def test_recovers_after_garbage(self):
        sim, _ = fresh_sim(seed=2)
        predicate = make_stack_predicate()
        steps_to_legitimacy(sim, predicate, 200)
        report = recovery_time(sim, garbage_shared, predicate, 200)
        assert report.converged

    def test_settle_below_one_raises(self):
        sim, _ = fresh_sim()
        with pytest.raises(ConfigurationError, match="settle"):
            recovery_time(sim, garbage_shared, make_stack_predicate(), 200,
                          settle=0)

    def test_scoped_fault(self):
        sim, topo = fresh_sim(seed=3)
        predicate = make_stack_predicate()
        steps_to_legitimacy(sim, predicate, 200)
        target = [next(iter(topo.graph))]
        report = recovery_time(sim, garbage_shared, predicate, 200,
                               nodes=target)
        assert report.converged
