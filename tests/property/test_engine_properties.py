"""Engine-vs-oracle equivalence under randomized dynamics.

Every engine of :data:`repro.clustering.engine.ENGINES` must be
observationally identical to its per-node oracle after *any* sequence
of moves, joins, and leaves: same head sets, same parents, same cluster
counts, window for window.  Hypothesis drives small adversarial traces
-- including the all-nodes-moved and empty-delta windows -- through
:class:`~repro.graph.dynamic.WindowUpdate` streams, and seeded walks
cover churn re-seeds and the max-min disconnected-member singleton
fallback.  The oracles are the per-node loops of
``tests/oracles/baselines.py`` and ``tests/oracles/election.py``; a
scratch clustering is an engine's first window, so this suite checks
the scratch clusterers end to end too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.engine import ENGINES, engine_for
from repro.graph.dynamic import DynamicTopology, WindowUpdate
from repro.graph.generators import uniform_topology
from repro.util.errors import ConfigurationError
from tests.oracles import baselines
from tests.oracles.election import compute_clustering


def _lowest_id_oracle(topology):
    return baselines.lowest_id_clustering(topology.graph,
                                          tie_ids=topology.ids)


def _degree_oracle(topology):
    return baselines.degree_clustering(topology.graph, tie_ids=topology.ids)


def _maxmin_oracle(d):
    return lambda topology: baselines.maxmin_clustering(
        topology.graph, d=d, tie_ids=topology.ids)


def _density_oracle(topology):
    return compute_clustering(topology.graph, tie_ids=topology.ids)


#: metric name -> (engine factory, per-window scratch oracle)
ENGINE_CASES = {
    "lowest-id": (lambda: engine_for("lowest-id"), _lowest_id_oracle),
    "degree": (lambda: engine_for("degree"), _degree_oracle),
    "max-min d=1": (lambda: engine_for("max-min", d=1), _maxmin_oracle(1)),
    "max-min d=2": (lambda: engine_for("max-min", d=2), _maxmin_oracle(2)),
    "max-min d=3": (lambda: engine_for("max-min", d=3), _maxmin_oracle(3)),
    "density": (lambda: engine_for("density"), _density_oracle),
}


def make_engines():
    return {name: factory() for name, (factory, _) in ENGINE_CASES.items()}


def seed_update(dynamic):
    """The stream-head update an engine re-seeds from (delta=None)."""
    return WindowUpdate(topology=dynamic.topology, delta=None,
                        density_changed=None, densities=dynamic.densities)


def assert_engines_match(engines, update, reference_topology=None):
    topology = (update.topology if reference_topology is None
                else reference_topology)
    for name, engine in engines.items():
        _factory, oracle = ENGINE_CASES[name]
        got = engine.apply_delta(update)
        want = oracle(topology)
        assert got.heads == want.heads, name
        assert got.parents == want.parents, name
        assert got.cluster_count == want.cluster_count, name
        assert engine.result() is got, name


@st.composite
def move_sequences(draw):
    """A deployment plus a short sequence of per-window actions."""
    n = draw(st.integers(2, 14))
    radius = draw(st.sampled_from([0.15, 0.3, 0.6]))
    coord = st.floats(0, 1, allow_nan=False, width=32)
    positions = [(draw(coord), draw(coord)) for _ in range(n)]
    actions = draw(st.lists(st.sampled_from(
        ["move-all", "move-one", "move-none", "jitter"]), min_size=1,
        max_size=5))
    return n, radius, positions, actions


def apply_action(rng, action, positions):
    positions = positions.copy()
    if action == "move-all":
        positions = rng.uniform(0, 1, size=positions.shape)
    elif action == "move-one" and len(positions):
        positions[int(rng.integers(len(positions)))] = rng.uniform(0, 1,
                                                                   size=2)
    elif action == "jitter":
        positions = np.clip(
            positions + rng.uniform(-0.02, 0.02, size=positions.shape), 0, 1)
    return positions  # "move-none" falls through unchanged


@settings(max_examples=30, deadline=None)
@given(case=move_sequences())
def test_engines_match_oracles_under_moves(case):
    n, radius, start, actions = case
    rng = np.random.default_rng(4242)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    engines = make_engines()
    assert_engines_match(engines, seed_update(dynamic))
    for action in actions + ["move-none"]:
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        if action == "move-none":
            assert not update.delta
        assert_engines_match(engines, update)


@settings(max_examples=15, deadline=None)
@given(case=move_sequences(),
       churns=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=3))
def test_engines_reseed_through_churn(case, churns):
    """Join/leave epochs change the node set; every engine re-seeds and
    stays exact through the interleaved move windows."""
    n, radius, start, actions = case
    rng = np.random.default_rng(2424)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    engines = make_engines()
    assert_engines_match(engines, seed_update(dynamic))
    next_id = n
    for (leavers, joiners), action in zip(churns, actions * 3):
        nodes = dynamic.graph.nodes
        departed = [int(x) for x in
                    rng.choice(nodes, size=min(leavers, len(nodes) - 1),
                               replace=False)] if len(nodes) > 1 else []
        arrivals = []
        for _ in range(joiners):
            arrivals.append((next_id, tuple(rng.uniform(0, 1, size=2))))
            next_id += 1
        update = dynamic.apply_churn(departed, arrivals)
        assert_engines_match(engines, update)
        survivors = dynamic.graph.nodes
        positions = np.array([dynamic.topology.positions[node]
                              for node in survivors]).reshape(-1, 2)
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        assert_engines_match(engines, update)


def test_maxmin_singleton_fallback_survives_deltas():
    """A member disconnected from its selected head falls back to a
    singleton (the documented max-min artifact); the engine reproduces
    the reference bit for bit on such a topology and across deltas.

    ``uniform_topology(30, 0.12, rng=57)`` triggers the fallback at
    d=2 (node 7 self-parents without having selected itself).
    """
    topo = uniform_topology(30, 0.12, rng=57)
    reference = baselines.maxmin_clustering(topo.graph, d=2, tie_ids=topo.ids)
    fallback = [node for node in topo.graph
                if reference.parents[node] == node
                and node not in _selected_heads(topo)]
    assert fallback, "the seed no longer triggers the fallback"
    positions = np.array([topo.positions[node]
                          for node in sorted(topo.graph.nodes)])
    dynamic = DynamicTopology(positions, 0.12)
    engine = engine_for("max-min", d=2)
    oracle = _maxmin_oracle(2)
    got = engine.apply_delta(seed_update(dynamic))
    assert got.parents == oracle(dynamic.topology).parents
    rng = np.random.default_rng(8)
    for _ in range(6):
        positions = np.clip(
            positions + rng.uniform(-0.01, 0.01, size=positions.shape), 0, 1)
        update = dynamic.move(positions)
        got = engine.apply_delta(update)
        want = oracle(update.topology)
        assert got.heads == want.heads
        assert got.parents == want.parents


def _selected_heads(topo):
    """Heads by rule 1-3 selection alone (before the fallback)."""
    chosen = baselines.maxmin_chosen_heads(topo.graph, 2, topo.ids)
    return {node for node, head in chosen.items() if head == node}


def test_empty_and_single_node_streams():
    for count in (0, 1):
        positions = np.zeros((count, 2))
        dynamic = DynamicTopology(positions, 0.2)
        engines = make_engines()
        assert_engines_match(engines, seed_update(dynamic))
        update = dynamic.move(positions)
        assert_engines_match(engines, update)


def test_result_before_init_raises():
    for name in ENGINES:
        with pytest.raises(ConfigurationError):
            engine_for(name).result()


def test_unknown_metric_raises():
    with pytest.raises(ConfigurationError):
        engine_for("no-such-metric")
