"""Incremental-vs-scratch equivalence under randomized dynamics.

The delta subsystem must be observationally identical to the rebuild
pipeline after *any* sequence of moves, joins, and leaves: same edge
sets, bit-identical exact densities (same Fractions from the same
machine integers), same cluster-heads under every order/fusion
configuration, and the same DAG-repair decisions (the repair inputs the
mobility loop feeds the renamer).  Hypothesis drives small adversarial
sequences -- including the all-nodes-moved and empty-delta edge cases --
and seeded medium-size walks cover the drift-triggered grid re-joins.
The distance-probed triangle delta is checked against the search-based
oracle of ``tests/oracles/dynamic.py`` after every window of a random
move/re-anchor/re-join/churn sequence.
"""

import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering.density import all_densities
from repro.clustering.incremental import IncrementalElection
from repro.graph.csr import CSRAdjacency
from repro.graph.dynamic import (
    DensityMap,
    DynamicTopology,
    DynamicUnitDisk,
    triangle_credits,
)
from repro.graph.geometry import pairs_within_range
from repro.mobility.trace import topology_at
from repro.naming.renaming import conflicting_edges, is_locally_unique
from tests.oracles.dynamic import row_pairs
from tests.oracles.dynamic import triangle_credits as oracle_credits
from tests.oracles.election import compute_clustering

CONFIGS = [("basic", False), ("basic", True),
           ("incumbent", False), ("incumbent", True)]


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


def assert_state_matches_scratch(dynamic, positions):
    scratch = topology_at(positions, dynamic.radius,
                          ids=dynamic.graph.nodes)
    assert dynamic.graph.nodes == scratch.graph.nodes
    # The adopted CSR snapshot equals the scratch-built one.
    ours, theirs = dynamic.graph.to_csr(), scratch.graph.to_csr()
    assert ours.ids == theirs.ids
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.array_equal(dynamic.triangles, theirs.triangle_counts())
    # The densities equal the scratch Fractions from both sides, iterate
    # in the same order, carry float() of every value, and pickle.
    expected = all_densities(scratch.graph, exact=True)
    densities = dynamic.densities
    assert isinstance(densities, DensityMap)
    assert densities == expected and expected == densities
    assert list(densities) == list(expected)
    assert all(isinstance(v, Fraction) for v in densities.values())
    assert densities.float_image.tolist() == \
        [float(value) for value in expected.values()]
    assert pickle.loads(pickle.dumps(densities)) == expected
    # Neighbor sets iterate as a fresh build's, before and after the
    # rebased graph materializes its dict, so edge order matches too.
    for node in scratch.graph:
        assert list(dynamic.graph.neighbors(node)) == \
            list(scratch.graph.neighbors(node))
    assert dynamic.graph.edges == scratch.graph.edges


def delta_case(n, old_edges, removed, added):
    """Old and new snapshots of one edge delta over rows ``0..n-1``."""
    new_edges = (set(old_edges) - set(removed)) | set(added)

    def snapshot(edges):
        pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        return CSRAdjacency.from_pairs(pairs[:, 0], pairs[:, 1], range(n))

    def rows(edges):
        pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    return snapshot(old_edges), snapshot(new_edges), rows(removed), \
        rows(added)


def assert_batched_delta_exact(n, old_edges, removed, added):
    old, new, removed_rows, added_rows = delta_case(n, old_edges, removed,
                                                    added)
    moved = (old.triangle_counts() - oracle_credits(old, *removed_rows)
             + oracle_credits(new, *added_rows))
    assert moved.tolist() == new.triangle_counts().tolist()


@st.composite
def edge_deltas(draw):
    """A random graph on ``n`` rows and an exact delta against it."""
    n = draw(st.integers(1, 12))
    universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    old = draw(st.sets(st.sampled_from(universe), max_size=len(universe))
               if universe else st.just(set()))
    removed = draw(st.sets(st.sampled_from(sorted(old))) if old
                   else st.just(set()))
    absent = [edge for edge in universe if edge not in old]
    added = draw(st.sets(st.sampled_from(absent)) if absent
                 else st.just(set()))
    return n, old, removed, added


TRIANGLE = {(0, 1), (0, 2), (1, 2)}


@settings(max_examples=200, deadline=None)
@given(case=edge_deltas())
# A removal and an addition on one triangle (found on either snapshot).
@example(case=(4, TRIANGLE | {(2, 3)}, {(0, 1)}, {(1, 3)}))
# All three edges of a triangle removed, then added: one credit each.
@example(case=(3, TRIANGLE, TRIANGLE, set()))
@example(case=(3, set(), set(), TRIANGLE))
# Isolated rows, and an empty delta.
@example(case=(6, {(1, 2)}, set(), set()))
@example(case=(5, TRIANGLE, set(), set()))
# The whole edge set replaced (the new one closes triangle 0-3-5).
@example(case=(6, TRIANGLE | {(3, 4)}, TRIANGLE | {(3, 4)},
               {(0, 3), (0, 5), (3, 5), (1, 4), (2, 4), (1, 5)}))
def test_batched_triangle_delta_matches_recount(case):
    assert_batched_delta_exact(*case)


def test_batched_triangle_delta_on_dense_graphs():
    """Triangles sharing changed edges in every combination."""
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(5, 25))
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
        present = rng.random(len(universe)) < rng.uniform(0.3, 0.9)
        old = {edge for edge, keep in zip(universe, present) if keep}
        flip = rng.random(len(universe)) < rng.uniform(0.05, 1.0)
        removed = {e for e, f in zip(universe, flip) if f and e in old}
        added = {e for e, f in zip(universe, flip) if f and e not in old}
        assert_batched_delta_exact(n, old, removed, added)


WINDOW_KINDS = ["move-all", "move-one", "jitter", "drift-few", "rejoin",
                "churn", "move-none"]


@st.composite
def dynamic_windows(draw):
    """A deployment (free, or on a lattice of half-radius steps whose
    points sit on cell boundaries and at exactly ``radius`` from each
    other) and a sequence of windows of every kind."""
    n = draw(st.integers(2, 40))
    radius = draw(st.sampled_from([0.1, 0.2, 0.35]))
    lattice = draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    windows = draw(st.lists(st.sampled_from(WINDOW_KINDS), min_size=1,
                            max_size=6))
    return n, radius, lattice, seed, windows


def next_window(rng, kind, positions, radius, lattice):
    """New positions for one move window of ``kind``."""
    positions = positions.copy()
    n = len(positions)
    if kind == "move-all":
        positions = rng.uniform(0, 1, size=positions.shape)
    elif kind == "move-one":
        positions[int(rng.integers(n))] = rng.uniform(0, 1, size=2)
    elif kind == "jitter":
        positions += rng.uniform(-0.05, 0.05, size=positions.shape) * radius
    elif kind == "drift-few":
        # A node and its nearest neighbors travel together past the
        # drift bound (a quarter radius), so pairs with both endpoints
        # re-anchored occur; few enough to stay in the re-anchor regime.
        count = max(1, n // 8)
        center = positions[int(rng.integers(n))]
        group = np.argsort(((positions - center) ** 2).sum(axis=1))[:count]
        positions[group] += (rng.uniform(-0.6, 0.6, size=2) * radius
                             + rng.uniform(-0.02, 0.02, size=(count, 2)))
    elif kind == "rejoin":
        half = rng.choice(n, size=max(1, n // 2), replace=False)
        positions[half] += rng.uniform(-0.5, 0.5, size=(len(half), 2)) * radius
    if lattice:
        positions = np.round(positions / (radius / 2)) * (radius / 2)
    return np.clip(positions, 0, 1)


def columns_of(positions_by_id, ids):
    """``(x, y)`` columns of ``ids``, NaN for identifiers not placed."""
    rows = [positions_by_id.get(node, (np.nan, np.nan)) for node in ids]
    points = np.array(rows, dtype=float).reshape(-1, 2)
    return points[:, 0].copy(), points[:, 1].copy()


def assert_credits_match_oracle(dynamic, old, old_at, update):
    """Both snapshots' distance-probed credits == the oracle's.

    ``old`` / ``old_at`` are the snapshot and positions before the
    window.  The other snapshot's coordinates are aligned here from
    identifiers, independently of the library's row bookkeeping.
    """
    new = dynamic.graph.to_csr()
    new_at = dynamic.topology.positions
    removed = row_pairs(old.ids, update.delta.removed)
    added = row_pairs(new.ids, update.delta.added)
    for csr, rows, here, there in ((old, removed, old_at, new_at),
                                   (new, added, new_at, old_at)):
        fast = triangle_credits(csr, *rows, columns_of(here, csr.ids),
                                columns_of(there, csr.ids), dynamic.radius)
        assert fast.tolist() == oracle_credits(csr, *rows).tolist()


@settings(max_examples=60, deadline=None)
@given(case=dynamic_windows())
@example(case=(30, 0.2, True, 7, ["drift-few", "rejoin", "churn",
                                   "jitter", "move-all", "move-one"]))
def test_distance_probed_credits_match_oracle_every_window(case):
    """Moves of every regime and churn: after each window the credits on
    both snapshots equal the search-based oracle's, and the whole state
    equals a scratch rebuild."""
    n, radius, lattice, seed, windows = case
    rng = np.random.default_rng(seed)
    positions = next_window(rng, "move-all", np.zeros((n, 2)), radius,
                            lattice)
    dynamic = DynamicTopology(positions, radius)
    next_id = n
    for kind in windows:
        old = dynamic.graph.to_csr()
        old_at = dynamic.topology.positions
        if kind == "churn":
            nodes = dynamic.graph.nodes
            leavers = min(int(rng.integers(0, 4)), len(nodes) - 1)
            departed = rng.choice(nodes, size=leavers,
                                  replace=False).tolist()
            arrivals = []
            for point in next_window(rng, "move-all",
                                     np.zeros((int(rng.integers(0, 4)), 2)),
                                     radius, lattice):
                arrivals.append((next_id, tuple(point)))
                next_id += 1
            update = dynamic.apply_churn(departed, arrivals)
            positions = np.array([dynamic.topology.positions[node]
                                  for node in dynamic.graph.nodes])
        else:
            positions = next_window(rng, kind, positions, radius, lattice)
            update = dynamic.move(positions)
        assert_credits_match_oracle(dynamic, old, old_at, update)
        assert_state_matches_scratch(dynamic, positions.reshape(-1, 2))


def test_parity_windows_reach_every_regime(monkeypatch):
    """The window kinds above drive the disk through the re-anchor join
    (with both endpoints of some pair re-anchored) and the full
    re-join, not only the in-place re-classification."""
    calls = {"reanchor": 0, "shared": 0, "rejoin": 0}
    reanchor, rejoin = DynamicUnitDisk._reanchor, DynamicUnitDisk._rejoin

    def spy_reanchor(self, drifted, moved, before):
        calls["reanchor"] += 1
        member = np.zeros(len(self), dtype=bool)
        member[drifted] = True
        both = member[self._ci] & member[self._cj]
        calls["shared"] += int(both.any())
        return reanchor(self, drifted, moved, before)

    def spy_rejoin(self):
        calls["rejoin"] += 1
        return rejoin(self)

    monkeypatch.setattr(DynamicUnitDisk, "_reanchor", spy_reanchor)
    monkeypatch.setattr(DynamicUnitDisk, "_rejoin", spy_rejoin)
    test_distance_probed_credits_match_oracle_every_window.hypothesis \
        .inner_test(case=(40, 0.2, False, 3,
                          ["drift-few", "jitter", "drift-few", "rejoin",
                           "churn", "drift-few"]))
    assert calls["reanchor"] >= 2 and calls["shared"] >= 1
    assert calls["rejoin"] >= 3  # construction, "rejoin", churn


@settings(max_examples=40, deadline=None)
@given(case=move_sequences())
def test_moves_keep_topology_and_densities_bit_identical(case):
    n, radius, start, actions = case
    rng = np.random.default_rng(12345)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    assert_state_matches_scratch(dynamic, positions)
    for action in actions:
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        if action == "move-none":
            assert not update.delta
        assert_state_matches_scratch(dynamic, positions)


@settings(max_examples=25, deadline=None)
@given(case=move_sequences(),
       churns=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       min_size=1, max_size=4))
def test_churn_sequences_keep_state_bit_identical(case, churns):
    n, radius, start, actions = case
    rng = np.random.default_rng(54321)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    next_id = n
    for (leavers, joiners), action in zip(churns, actions * 4):
        nodes = dynamic.graph.nodes
        departed = [int(x) for x in
                    rng.choice(nodes, size=min(leavers, len(nodes) - 1),
                               replace=False)] if len(nodes) > 1 else []
        arrivals = []
        for _ in range(joiners):
            arrivals.append((next_id, tuple(rng.uniform(0, 1, size=2))))
            next_id += 1
        dynamic.apply_churn(departed, arrivals)
        survivors = dynamic.graph.nodes
        positions = np.array([dynamic.topology.positions[node]
                              for node in survivors]).reshape(-1, 2)
        assert_state_matches_scratch(dynamic, positions)
        # Interleave a move window between churn epochs.
        positions = apply_action(rng, action, positions)
        dynamic.move(positions)
        assert_state_matches_scratch(dynamic, positions)


@settings(max_examples=20, deadline=None)
@given(case=move_sequences())
def test_elections_match_oracle_under_dynamics(case):
    n, radius, start, actions = case
    rng = np.random.default_rng(999)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    tie_ids = dynamic.topology.ids
    dag_ids = {node: int(rng.integers(100)) for node in dynamic.graph}
    engines = {cfg: IncrementalElection(order=cfg[0], fusion=cfg[1])
               for cfg in CONFIGS}
    previous = {cfg: (None, None) for cfg in CONFIGS}
    density_changed = None
    graph_changed = True
    for action in actions + ["move-none"]:
        for cfg, engine in engines.items():
            prev_fast, prev_oracle = previous[cfg]
            fast = engine.update(dynamic.graph, dynamic.densities,
                                 tie_ids=tie_ids, dag_ids=dag_ids,
                                 previous=prev_fast,
                                 density_changed=density_changed,
                                 graph_changed=graph_changed,
                                 dag_changed=False)
            oracle = compute_clustering(dynamic.graph, tie_ids=tie_ids,
                                        dag_ids=dag_ids, order=cfg[0],
                                        fusion=cfg[1], previous=prev_oracle,
                                        densities=dynamic.densities)
            assert fast.heads == oracle.heads
            assert fast.parents == oracle.parents
            assert fast.densities == oracle.densities
            previous[cfg] = (fast, oracle)
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        density_changed = update.density_changed
        graph_changed = bool(update.delta)


@settings(max_examples=30, deadline=None)
@given(case=move_sequences(), namespace=st.integers(2, 6))
def test_dag_repair_inputs_match_scratch_legitimacy(case, namespace):
    """The delta loop's conflict trigger == the scratch legitimacy check.

    The mobility driver re-runs the renamer iff an added edge collides
    two persisted names; the scratch path re-runs it iff
    ``is_locally_unique`` fails.  With names locally unique at the
    previous window, the two predicates must agree after any move.
    A tiny namespace makes collisions likely.
    """
    n, radius, start, actions = case
    rng = np.random.default_rng(777)
    positions = np.asarray(start, dtype=float)
    dynamic = DynamicTopology(positions, radius)
    for action in actions:
        # Draw names locally unique for the *current* window, mimicking a
        # repaired state (skip shapes the tiny namespace cannot color).
        names = {}
        for node in dynamic.graph:
            used = {names[q] for q in dynamic.graph.neighbors(node)
                    if q in names}
            free = [c for c in range(namespace) if c not in used]
            if not free:
                return
            names[node] = free[int(rng.integers(len(free)))]
        assert is_locally_unique(dynamic.graph, names)
        positions = apply_action(rng, action, positions)
        update = dynamic.move(positions)
        trigger = any(names[u] == names[v]
                      for u, v in update.delta.added.tolist())
        assert trigger == (not is_locally_unique(dynamic.graph, names))


@pytest.mark.parametrize("seed,count,radius,step", [
    (1, 150, 0.1, 0.004),   # pedestrian-like: tiny steps, no re-join
    (2, 150, 0.1, 0.05),    # fast: drift bound trips, grid re-joins
    (3, 200, 0.05, 0.02),
    (4, 80, 0.3, 0.1),
])
def test_seeded_walks_stay_exact(seed, count, radius, step):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 1, size=(count, 2))
    disk = DynamicUnitDisk(positions, radius)
    for _ in range(10):
        positions = np.clip(
            positions + rng.uniform(-step, step, size=positions.shape), 0, 1)
        disk.move(positions)
        expected = {frozenset(p) for p in
                    pairs_within_range(positions, radius).tolist()}
        got = {frozenset(p) for p in disk.edge_index_pairs().tolist()}
        assert got == expected


def test_vectorized_legitimacy_check_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        topo = topology_at(rng.uniform(0, 1, size=(40, 2)), 0.2)
        names = {node: int(rng.integers(6)) for node in topo.graph}
        assert is_locally_unique(topo.graph, names) == \
            (not conflicting_edges(topo.graph, names))


def test_legitimacy_check_falls_back_for_exotic_names():
    topo = topology_at([(0.0, 0.0), (0.05, 0.0)], 0.2)
    # Distinct floats that int64 truncation would collide.
    floats = {0: 1.5, 1: 1.25}
    assert is_locally_unique(topo.graph, floats)
    # Over-int64 names must not overflow the vectorized path.
    huge = {0: 2 ** 80, 1: 2 ** 80}
    assert not is_locally_unique(topo.graph, huge)
    assert is_locally_unique(topo.graph, {0: 2 ** 80, 1: 2 ** 80 + 1})
