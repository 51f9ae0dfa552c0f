"""Golden regression tests: exact outputs under fixed seeds.

These pin the behaviour of the full pipeline (generator -> renaming ->
clustering) to known-good values so that refactors that silently change
semantics (a different tie-break, an off-by-one in a neighborhood, an RNG
consumption-order change) fail loudly.  numpy's PCG64 stream is stable
across versions, making the values reproducible.

If a change *intentionally* alters behaviour, regenerate the constants
with the snippets in each test's docstring and say so in the commit.
"""

import hashlib

import pytest

from repro.cli import main
from repro.clustering.oracle import compute_clustering
from repro.graph.generators import square_grid_topology, uniform_topology
from repro.naming.assign import assign_dag_ids
from repro.util.rng import as_rng


class TestGoldenClustering:
    def test_uniform_50_seed7_heads(self):
        """compute_clustering over uniform_topology(50, 0.22, rng=7)."""
        topo = uniform_topology(50, 0.22, rng=7)
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        assert clustering.cluster_count == 4
        assert clustering.heads == {2, 12, 15, 29}

    def test_uniform_50_seed7_structure(self):
        topo = uniform_topology(50, 0.22, rng=7)
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        sizes = sorted(len(m) for m in clustering.clusters.values())
        assert sizes == sorted(sizes)
        assert sum(sizes) == 50
        assert clustering.average_tree_length() > 0

    def test_grid_100_no_dag_single_cluster(self):
        topo = square_grid_topology(100, radius=0.18)
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        assert clustering.cluster_count == 1
        # The winner of the all-equal-density interior is deterministic.
        assert clustering.heads == {11}

    def test_fusion_on_seed7(self):
        topo = uniform_topology(50, 0.22, rng=7)
        basic = compute_clustering(topo.graph, tie_ids=topo.ids)
        fused = compute_clustering(topo.graph, tie_ids=topo.ids,
                                   fusion=True)
        assert fused.heads <= basic.heads
        assert fused.cluster_count == 4


class TestGoldenRenaming:
    # Names in sorted-node order for uniform_topology(60, 0.2, rng=3) and
    # as_rng(11).
    FRESH = [
        19, 18, 114, 71, 84, 86, 102, 4, 69, 21, 57, 133, 78, 10, 78, 18,
        108, 136, 141, 89, 125, 53, 20, 73, 63, 95, 143, 39, 123, 19, 50,
        113, 35, 96, 66, 73, 135, 117, 120, 79, 141, 141, 19, 29, 44, 79,
        118, 69, 141, 50, 133, 85, 103, 33, 85, 115, 127, 124, 139, 18,
    ]
    FROM_ZERO = [
        20, 19, 114, 72, 85, 87, 102, 5, 70, 22, 0, 58, 133, 133, 11, 78,
        19, 108, 136, 84, 89, 125, 53, 21, 74, 64, 95, 143, 40, 123, 20,
        50, 113, 36, 96, 66, 74, 135, 117, 121, 0, 79, 0, 141, 0, 141, 20,
        30, 45, 80, 118, 70, 0, 0, 141, 0, 0, 0, 51, 0,
    ]

    def test_polite_renaming_seeded(self):
        """assign_dag_ids over uniform_topology(60, 0.2, rng=3), rng=11."""
        topo = uniform_topology(60, 0.2, rng=3)
        dag_ids, rounds = assign_dag_ids(topo, as_rng(11))
        assert rounds == 1
        assert [dag_ids[node] for node in sorted(topo.graph)] == self.FRESH

    def test_polite_repair_from_all_zero_names(self):
        """Every redraw has exclusions: all names start at 0."""
        topo = uniform_topology(60, 0.2, rng=3)
        dag_ids, rounds = assign_dag_ids(
            topo, as_rng(11), initial_ids={node: 0 for node in topo.graph})
        assert rounds == 3
        assert [dag_ids[node] for node in sorted(topo.graph)] \
            == self.FROM_ZERO


class TestGoldenExperiments:
    def test_table1_is_frozen(self):
        from repro.experiments.table1 import run_table1
        _table, exact = run_table1()
        assert exact

    def test_figure1_assignment_is_frozen(self):
        from repro.graph.generators import figure1_topology
        topo = figure1_topology()
        clustering = compute_clustering(topo.graph, tie_ids=topo.ids)
        assert {n: clustering.parent(n) for n in sorted(topo.graph.nodes)} \
            == {"a": "d", "b": "h", "c": "b", "d": "j", "e": "i",
                "f": "j", "h": "h", "i": "h", "j": "j"}


@pytest.mark.parametrize("family,digest", [
    ("table3", "a4f4a8dcf495381a5406e6c61f4850a77fd5aaafbf2d8277dcc4066189820b01"),
    ("table4", "3d0d52937ab725677fddac18a63b54fd0c3b9ca2119404e2ca250e90bacd8a3e"),
    ("table5", "549fd4187064ed8f4c096e9e8943c7248b9b3872ba87501ebb30776cd8c3d1e8"),
    ("mobility", "0228e9dff843f13371ddfd5ba0ed864709a811ed6cf7d70b569aedcfa6308058"),
    ("churn", "7468f63c11e146a8259e9ffc6bda335d014d3ace1e806a73f0129459b6704b8b"),
    ("comparison", "59ec73349bffed8c4894ac4fb75cc81ac4dd41d15b03e185274679b29108b62a"),
])
def test_paper_table_stdout_is_frozen(family, digest, capsys):
    """sha256 of ``repro <family> --preset quick --seed 2024`` stdout.

    ``mobility``, ``churn`` and ``comparison`` are the families that run
    on the delta-maintained ``DynamicTopology``."""
    assert main([family, "--preset", "quick", "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [
    (["recovery", "--preset", "smoke"],
     "f755a2e1fe5451425447e81ef813d397218c9f75681ec04288b0cda3ecbf45f5"),
    (["table2", "--preset", "smoke"],
     "ec999523db6bb3cf64f89c4cd8546a51caefc19f7c87f648d15c91b16db85d07"),
    (["scaling"],
     "eef4858566fd8f69cc593c8b8d8f51b9b517aea816c066dafdb7f85abc9baa91"),
    (["beacons"],
     "9bcc65cf9dbeb95497f95c91dfd2dd5c103ab29c1991ffc856cb621d39bddb27"),
    (["node-churn"],
     "918141f89497a16ebcb52921ec1542e852ad658a63f87ef4634a35596ef2445e"),
], ids=["recovery", "table2", "scaling", "beacons", "node-churn"])
def test_simulator_family_stdout_is_frozen(args, digest, capsys):
    """sha256 of ``repro <args> --seed 2024`` stdout, for the five
    families that drive the message-passing simulator (``scaling``,
    ``beacons`` and ``node-churn`` take no preset).  ``beacons`` is the
    only table that reads the simulator's byte counts."""
    assert main([*args, "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [
    (["comparison", "--topology", "distance_rule", "--topology", "erdos_renyi",
      "--topology", "nw_small_world", "--topology", "scale_free"],
     "1f304e9735997572ee6b05179f51aa928a842cf1451262607a6d3312188e89dd"),
    (["churn", "--topology", "erdos_renyi"],
     "4349cc25dbec926f3df9bf3180519686c15820b6b1a520becd92dcc0ee783041"),
], ids=["comparison-robustness", "churn-resampled"])
def test_non_udg_baseline_stdout_is_frozen(args, digest, capsys):
    """sha256 of ``repro <args> --preset smoke --seed 2024`` stdout, for
    the two outputs that run the scratch baselines on graphs that are
    not unit-disk graphs: the robustness table across topology models
    and the churn table on resampled Erdos-Renyi graphs."""
    assert main([*args, "--preset", "smoke", "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,digest", [
    ("energy", "b918815facc531e19819951116c1a6b9b68b8dfbab3e278be53a57b163129d61"),
    ("intensity", "3c9dee5b5fe70544b384aad0abc378afea7414477357d0f8a904159abef9a116"),
])
def test_density_family_stdout_is_frozen(family, digest, capsys):
    """sha256 of ``repro <family> --seed 2024`` stdout.

    Both families read ``all_densities`` on graphs built by
    ``Graph.from_pair_array``: ``energy`` ranks exact densities under
    the energy-aware order, ``intensity`` averages float densities."""
    assert main([family, "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args,digest", [
    (["workload", "--preset", "quick"],
     "645c80addd8da9d1ca4652f8df183d33ac2f47c837d1a6fe1267b7f75f846d8c"),
    (["scalability"],
     "3442b5a9127ec4db88c2c843c88a4d1fe997d025b61157fb52a027d15a2f9b77"),
    (["workload", "--preset", "smoke", "--metric", "degree"],
     "aa0ac9ca3ca3294aff6d56c9e727541f4bcf3cd767d6fb0c4e0b0dfe0b6b2ef8"),
    (["workload", "--preset", "smoke", "--metric", "lowest_id"],
     "597119b89d9f8ab5a429fc1f830eba3fdea10f3b9e1a76ee30373e0b153f3da6"),
    (["workload", "--preset", "smoke", "--metric", "maxmin"],
     "73d3c844f87fd416b1daeab69bc7c0113f1c1ff77dcf182569f3edda4d99cad6"),
], ids=["workload", "scalability", "workload-degree", "workload-lowest-id",
        "workload-maxmin"])
def test_routing_family_stdout_is_frozen(args, digest, capsys):
    """sha256 of ``repro <args> --seed 2024`` stdout, for the two
    families that route over the cluster hierarchy: ``workload`` serves
    request streams (its mobility shape re-elects on every window),
    ``scalability`` counts flat against hierarchical routing state.
    The three ``--metric`` cases serve over the baseline engines
    (highest degree, lowest ID, max-min), whose windows hand their
    parent rows to ``Clustering.from_rows``."""
    assert main([*args, "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,digest", [
    ("figure2", "d3abc5ca94b25f1c84fac1a84875ea155e8db1002c1958df84944b187c06c2e7"),
    ("figure3", "b1bbb25f40465d73b5ba30bb02acc624f14cd48b3e16e5614a0bc0ccd1c35cb3"),
])
def test_grid_figure_stdout_is_frozen(family, digest, capsys):
    """sha256 of ``repro <family> --seed 2024`` stdout, for the two
    grid figures: both build their grid through the one-shot cell join
    (``pairs_within_range``).  ``figure2`` elects without DAG names, so
    its output does not depend on the seed."""
    assert main([family, "--seed", "2024"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
