"""Every labeled graph on five nodes stabilizes, cold and after faults.

The other convergence tests sample topologies; this module enumerates
all ``2**10 = 1024`` labeled graphs on five nodes (isolated nodes,
disconnected graphs and the complete graph included) and runs the full
protocol stack on each:

* a cold boot reaches
  :func:`~repro.stabilization.predicates.stack_legitimate` under every
  stack configuration -- no DAG, DAG, DAG + fusion, DAG + incumbent --
  within a few steps, and the clustering extracted from the protocol's
  state passes :meth:`~repro.clustering.result.Clustering.check_invariants`:
  clusters connected, heads non-adjacent and, with fusion, heads at
  least 3 hops apart;
* from that legitimate state, every fault class of
  :data:`repro.experiments.stabilization_time.FAULTS` is recovered from.

Tier-1 injects the fault classes on the DAG configuration for every 8th
graph.  With ``REPRO_EXHAUSTIVE=1`` (read by this module and
``test_exhaustive_elections.py``) every graph gets every fault class
under every configuration, as CI's ``exhaustive-small-graphs`` job runs
it.

The step bounds are the maxima measured over the full sweep: Lemma 2
bounds stabilization by the height of ``DAG≺``, which five nodes keep
small.
"""

import os
from itertools import combinations

import pytest

from repro.experiments.stabilization_time import FAULTS
from repro.graph.generators import Topology
from repro.graph.graph import Graph
from repro.protocols.stack import extract_clustering, standard_stack
from repro.runtime.simulator import StepSimulator
from repro.stabilization.monitor import recovery_time, steps_to_legitimacy
from repro.stabilization.predicates import make_stack_predicate

FULL_SWEEP = os.environ.get("REPRO_EXHAUSTIVE") == "1"
FAULT_STRIDE = 1 if FULL_SWEEP else 8

NODES = 5
PAIRS = list(combinations(range(NODES), 2))
BUDGET = 40

CONFIGURATIONS = {
    "no DAG": {"use_dag": False},
    "DAG": {"use_dag": True},
    "DAG + fusion": {"use_dag": True, "fusion": True},
    "DAG + incumbent": {"use_dag": True, "order": "incumbent"},
}
COLD_BOOT_STEPS = {"no DAG": 5, "DAG": 5, "DAG + fusion": 6,
                   "DAG + incumbent": 5}
RECOVERY_STEPS = {"no DAG": 6, "DAG": 5, "DAG + fusion": 7,
                  "DAG + incumbent": 5}


def labeled_graphs():
    """``(mask, topology)`` for every labeled graph on :data:`NODES`
    nodes; bit ``i`` of ``mask`` selects the ``i``-th pair."""
    for mask in range(2 ** len(PAIRS)):
        edges = [pair for bit, pair in enumerate(PAIRS) if mask >> bit & 1]
        yield mask, Topology(Graph(nodes=range(NODES), edges=edges))


def cold_boot(topology, config, seed):
    """A simulator booted to legitimacy, its predicate and the report."""
    options = CONFIGURATIONS[config]
    simulator = StepSimulator(
        topology, standard_stack(topology=topology, **options), rng=seed)
    predicate = make_stack_predicate(order=options.get("order", "basic"),
                                     fusion=options.get("fusion", False),
                                     use_dag=options["use_dag"])
    return simulator, predicate, steps_to_legitimacy(simulator, predicate,
                                                     BUDGET)


def check_clustering(simulator, config):
    # With fusion=True, check_invariants also checks the 3-hop separation.
    extract_clustering(
        simulator, fusion=CONFIGURATIONS[config].get("fusion", False)
    ).check_invariants()


@pytest.mark.parametrize("config", sorted(CONFIGURATIONS))
def test_cold_boot_stabilizes_on_every_graph(config):
    slow = []
    for mask, topology in labeled_graphs():
        simulator, _predicate, report = cold_boot(topology, config, mask)
        assert report.converged, f"graph {mask:#05x}: {report}"
        if report.steps > COLD_BOOT_STEPS[config]:
            slow.append((mask, report.steps))
        check_clustering(simulator, config)
    assert not slow, f"cold boots over {COLD_BOOT_STEPS[config]} steps: {slow}"


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize(
    "config", sorted(CONFIGURATIONS) if FULL_SWEEP else ["DAG"])
def test_recovers_from_every_fault_class(config, fault):
    slow = []
    for mask, topology in labeled_graphs():
        if mask % FAULT_STRIDE:
            continue
        simulator, predicate, report = cold_boot(topology, config, mask)
        assert report.converged, f"graph {mask:#05x}: {report}"
        recovery = recovery_time(simulator, FAULTS[fault], predicate, BUDGET)
        assert recovery.converged, f"graph {mask:#05x}: {recovery}"
        if recovery.steps > RECOVERY_STEPS[config]:
            slow.append((mask, recovery.steps))
        check_clustering(simulator, config)
    assert not slow, \
        f"recoveries over {RECOVERY_STEPS[config]} steps: {slow}"
