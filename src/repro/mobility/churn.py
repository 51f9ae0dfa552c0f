"""Node churn: the birth-death workload of self-organized networks.

The paper's premise: *"every mobile can move everywhere, and thus can
disappear or appear in the network at any time."*  Mobility covers the
moving part; this process covers appearing and disappearing.  Each epoch,
every present node departs with probability ``leave_probability`` and a
``Poisson(arrival_rate)`` number of fresh nodes appears at uniform
positions, with never-reused identifiers.
"""

import numpy as np

from repro.graph.dynamic import DynamicTopology
from repro.graph.generators import Topology
from repro.graph.geometry import unit_disk_graph
from repro.util.errors import ConfigurationError
from repro.util.rng import as_rng


class ChurnProcess:
    """Evolves a population of (node id, position) pairs epoch by epoch.

    :meth:`topology` rebuilds the unit-disk snapshot from scratch (the
    reference oracle); :meth:`dynamics` + :meth:`epoch_update` maintain
    one :class:`~repro.graph.dynamic.DynamicTopology` across epochs.
    Node churn re-joins the geometry grid (positions of the whole
    population define the cells), but the graph, triangle, and density
    maintenance downstream of the resulting edge delta stays
    proportional to the edges the departures and arrivals touched.
    Identifiers are monotonically increasing and never reused, so the
    maintained graph's row order stays the sorted order the scratch
    path produces -- the property the simulators' determinism rides on.
    """

    def __init__(self, initial_count, radius, leave_probability,
                 arrival_rate, side=1.0, rng=None):
        if initial_count < 1:
            raise ConfigurationError(
                f"initial_count must be >= 1, got {initial_count}")
        if not 0.0 <= leave_probability <= 1.0:
            raise ConfigurationError(
                f"leave_probability must be in [0, 1], got {leave_probability}")
        if arrival_rate < 0:
            raise ConfigurationError(
                f"arrival_rate must be non-negative, got {arrival_rate}")
        if radius is None:
            raise ConfigurationError(
                "churn maintenance needs a transmission radius; got "
                "radius=None (combinatorial topologies have no geometry "
                "to place arrivals in)")
        self.radius = float(radius)
        self.leave_probability = float(leave_probability)
        self.arrival_rate = float(arrival_rate)
        self.side = float(side)
        self.rng = as_rng(rng)
        self._dynamic = None
        self._in_epoch_update = False
        self._next_id = initial_count
        self.population = {
            node: tuple(self.rng.uniform(0.0, self.side, size=2))
            for node in range(initial_count)
        }

    def epoch(self):
        """Apply one epoch of departures and arrivals.

        Returns ``(departed ids, arrived ids)``.  At least one node always
        remains (an empty network has no protocol to observe).  Once a
        dynamic view exists, epochs must go through :meth:`epoch_update`
        so the maintained topology sees every change.
        """
        if self._dynamic is not None and not self._in_epoch_update:
            raise ConfigurationError(
                "a dynamic topology is attached; use epoch_update() so it "
                "stays in sync with the population")
        departed = [node for node in self.population
                    if self.rng.random() < self.leave_probability]
        if len(departed) == len(self.population):
            departed = departed[:-1]
        for node in departed:
            del self.population[node]
        arrivals = int(self.rng.poisson(self.arrival_rate))
        arrived = []
        for _ in range(arrivals):
            node = self._next_id
            self._next_id += 1
            self.population[node] = tuple(
                self.rng.uniform(0.0, self.side, size=2))
            arrived.append(node)
        return departed, arrived

    def topology(self):
        """The unit-disk topology over the current population (scratch)."""
        node_ids = sorted(self.population)
        positions = np.array([self.population[node] for node in node_ids])
        graph, positions_by_id = unit_disk_graph(positions, self.radius,
                                                 node_ids=node_ids)
        return Topology(graph, positions=positions_by_id, radius=self.radius)

    def dynamics(self):
        """The delta-maintained topology over the current population.

        Built once from the population at first call, then kept in sync
        by :meth:`epoch_update` (which must be used *instead of* a bare
        :meth:`epoch` once the dynamic view exists, or the two drift
        apart).  Bit-identical to :meth:`topology` at every epoch.  The
        maintained view carries the triangle/density analytics along so
        density-driven consumers can read them at any epoch; at churn
        population sizes that bookkeeping is noise next to the protocol
        simulation it feeds.
        """
        if self._dynamic is None:
            node_ids = sorted(self.population)
            positions = np.array([self.population[node]
                                  for node in node_ids]).reshape(-1, 2)
            self._dynamic = DynamicTopology(positions, self.radius,
                                            ids=node_ids)
        return self._dynamic

    def epoch_update(self):
        """One epoch applied to the dynamic topology.

        Runs :meth:`epoch` and feeds the departures/arrivals through
        :meth:`DynamicTopology.apply_churn`; returns the resulting
        :class:`~repro.graph.dynamic.WindowUpdate`.
        """
        dynamic = self.dynamics()
        self._in_epoch_update = True
        try:
            departed, arrived = self.epoch()
        finally:
            self._in_epoch_update = False
        return dynamic.apply_churn(
            departed, [(node, self.population[node]) for node in arrived])

    def __len__(self):
        return len(self.population)
