"""Unit tests for the engine table and the baseline engines."""

import numpy as np
import pytest

from repro.clustering.baselines import GreedyDominatingEngine, MaxMinEngine
from repro.clustering.baselines.incremental import SCRATCH_FALLBACK_FRACTION
from repro.clustering.engine import ENGINES, engine_for
from repro.clustering.incremental import IncrementalElection
from repro.graph.dynamic import DynamicTopology, WindowUpdate
from repro.graph.generators import uniform_topology
from repro.util.errors import ConfigurationError
from tests.oracles import baselines
from tests.oracles.election import compute_clustering


def _seed_update(dynamic):
    return WindowUpdate(topology=dynamic.topology, delta=None,
                        density_changed=None, densities=dynamic.densities)


def _dynamic_from(topo, radius):
    positions = np.array([topo.positions[node]
                          for node in sorted(topo.graph.nodes)])
    return positions, DynamicTopology(positions, radius)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert sorted(ENGINES) == ["degree", "density", "lowest-id",
                                   "max-min"]

    def test_factories_build_the_right_types(self):
        assert isinstance(engine_for("lowest-id"), GreedyDominatingEngine)
        assert isinstance(engine_for("degree"), GreedyDominatingEngine)
        assert isinstance(engine_for("max-min", d=3), MaxMinEngine)
        assert isinstance(engine_for("density"), IncrementalElection)

    def test_unknown_metric_raises(self):
        with pytest.raises(ConfigurationError):
            engine_for("betweenness")

    def test_options_are_validated(self):
        with pytest.raises(ConfigurationError):
            engine_for("max-min", d=0)
        with pytest.raises(ConfigurationError):
            GreedyDominatingEngine("random")


class TestProtocol:
    def test_init_matches_scratch(self):
        topo = uniform_topology(50, 0.2, rng=3)
        cases = {
            "lowest-id": baselines.lowest_id_clustering(topo.graph,
                                                        tie_ids=topo.ids),
            "degree": baselines.degree_clustering(topo.graph,
                                                  tie_ids=topo.ids),
            "max-min": baselines.maxmin_clustering(topo.graph, d=2,
                                                   tie_ids=topo.ids),
            "density": compute_clustering(topo.graph, tie_ids=topo.ids),
        }
        for metric, want in cases.items():
            engine = engine_for(metric)
            got = engine.init(topo)
            assert got.parents == want.parents
            assert engine.result() is got

    def test_result_before_init_raises(self):
        for metric in ENGINES:
            with pytest.raises(ConfigurationError):
                engine_for(metric).result()

    def test_apply_delta_before_init_seeds(self):
        topo = uniform_topology(20, 0.2, rng=1)
        _positions, dynamic = _dynamic_from(topo, 0.2)
        for metric in ENGINES:
            engine = engine_for(metric)
            got = engine.apply_delta(_seed_update(dynamic))
            assert engine.result() is got

    def test_empty_delta_returns_previous_object(self):
        topo = uniform_topology(25, 0.2, rng=2)
        positions, dynamic = _dynamic_from(topo, 0.2)
        engines = [engine_for(m) for m in ENGINES]
        seeded = [e.apply_delta(_seed_update(dynamic)) for e in engines]
        update = dynamic.move(positions)  # nothing moved
        assert not update.delta
        for engine, previous in zip(engines, seeded):
            assert engine.apply_delta(update) is previous

    def test_node_set_change_reseeds(self):
        topo = uniform_topology(20, 0.25, rng=4)
        _positions, dynamic = _dynamic_from(topo, 0.25)
        engines = [engine_for(m) for m in ENGINES]
        for engine in engines:
            engine.apply_delta(_seed_update(dynamic))
        update = dynamic.apply_churn(departed=[0],
                                     arrivals=[(99, (0.5, 0.5))])
        for engine in engines:
            clustering = engine.apply_delta(update)
            assert 99 in clustering.parents
            assert 0 not in clustering.parents


class TestUnchangedClusteringShortCircuit:
    def test_intra_cluster_edge_removal_returns_previous_object(self):
        # Triangle 0-1-2 inside radius 0.1; moving node 2 breaks the
        # (1, 2) edge but both stay members of head 0, so the parent
        # array is unchanged and the engines hand back the previous
        # Clustering object without rebuilding it.
        positions = np.array([[0.0, 0.0], [0.09, 0.0], [0.045, 0.078]])
        dynamic = DynamicTopology(positions, 0.1)
        assert dynamic.graph.edge_count() == 3
        engines = {m: engine_for(m) for m in ("lowest-id", "degree")}
        seeded = {m: e.apply_delta(_seed_update(dynamic))
                  for m, e in engines.items()}
        moved = positions.copy()
        moved[2] = (0.02, 0.09)
        update = dynamic.move(moved)
        assert len(update.delta.removed) == 1
        assert not len(update.delta.added)
        for metric, engine in engines.items():
            assert engine.apply_delta(update) is seeded[metric]


class TestRepairPaths:
    """Exercise both the incremental repair and the scratch fallback."""

    RADIUS = 0.08

    def _drive(self, metric, count, mover_count, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 1, size=(count, 2))
        dynamic = DynamicTopology(positions, self.RADIUS)
        engine = engine_for(metric)
        engine.apply_delta(_seed_update(dynamic))
        for _ in range(5):
            movers = rng.choice(count, size=mover_count, replace=False)
            positions = positions.copy()
            positions[movers] += rng.uniform(-0.02, 0.02,
                                             size=(mover_count, 2))
            positions = np.clip(positions, 0, 1)
            update = dynamic.move(positions)
            got = engine.apply_delta(update)
            topo = update.topology
            if metric == "max-min":
                want = baselines.maxmin_clustering(topo.graph, d=2,
                                                   tie_ids=topo.ids)
            elif metric == "degree":
                want = baselines.degree_clustering(topo.graph,
                                                   tie_ids=topo.ids)
            else:
                want = baselines.lowest_id_clustering(topo.graph,
                                                      tie_ids=topo.ids)
            assert got.parents == want.parents, metric

    @pytest.mark.parametrize("metric", ["lowest-id", "degree", "max-min"])
    def test_small_deltas_stay_exact(self, metric):
        # A couple of movers among 250 nodes: the dirty set is far below
        # the scratch threshold, so the repair path runs.
        self._drive(metric, count=250, mover_count=2, seed=11)

    @pytest.mark.parametrize("metric", ["lowest-id", "degree", "max-min"])
    def test_bulk_deltas_fall_back_to_scratch(self, metric):
        # Most of the population moves every window: the dirty set blows
        # the SCRATCH_FALLBACK_FRACTION budget and the engines rebuild.
        assert SCRATCH_FALLBACK_FRACTION > 1
        self._drive(metric, count=60, mover_count=55, seed=12)

    @pytest.mark.parametrize("metric", ["lowest-id", "degree", "max-min"])
    def test_windows_leave_the_snapshot_id_map_unbuilt(self, metric):
        # Delta endpoints map to rows through the seed snapshot's
        # ``index_of``: a window's CSR-only snapshot never builds its own.
        rng = np.random.default_rng(13)
        positions = rng.uniform(0, 1, size=(250, 2))
        dynamic = DynamicTopology(positions, self.RADIUS,
                                  track_densities=False)
        engine = engine_for(metric)
        engine.apply_delta(WindowUpdate(topology=dynamic.topology, delta=None,
                                        density_changed=None, densities=None))
        windows = 0
        while windows < 3:
            movers = rng.choice(250, size=6, replace=False)
            positions = positions.copy()
            positions[movers] += rng.uniform(-0.05, 0.05, size=(6, 2))
            update = dynamic.move(np.clip(positions, 0, 1))
            if not update.delta:
                continue
            windows += 1
            csr = update.topology.graph.to_csr()
            assert csr._index_of is None
            engine.apply_delta(update)
            assert csr._index_of is None
