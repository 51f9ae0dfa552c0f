"""Smoke and shape tests for the experiment runners (tiny presets)."""

import numpy as np
import pytest

from repro.experiments.common import Preset, get_preset
from repro.experiments.comparison import run_comparison
from repro.experiments.mobility import run_mobility_trace
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.experiments.table5 import run_table5
from repro.util.errors import ConfigurationError
from tests.oracles import mobility as mobility_oracle

TINY = Preset(name="tiny", runs=2, intensity=150, mobility_nodes=60,
              mobility_duration=8.0, mobility_window=2.0)


class TestPresets:
    def test_lookup_by_name(self):
        assert get_preset("quick").name == "quick"
        assert get_preset("paper").runs == 1000

    def test_pass_through_instance(self):
        assert get_preset(TINY) is TINY

    def test_overrides(self):
        preset = get_preset("quick", runs=3)
        assert preset.runs == 3
        assert preset.name == "quick"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            get_preset("enormous")


class TestTable1:
    def test_exact_reproduction(self):
        table, exact = run_table1()
        assert exact
        assert len(table.rows) == 9


class TestTable2:
    def test_schedule_matches_paper(self):
        table = run_table2(TINY, radius=0.25, rng=0)
        measured = table.column("measured step")
        assert measured[0] == 1.0   # neighbors at step 1
        assert measured[1] == 2.0   # density at step 2
        assert measured[2] == 3.0   # father at step 3
        assert measured[3] >= 3.0   # head needs the tree depth on top


class TestTable3:
    def test_rows_and_range(self):
        table = run_table3(TINY, radii=(0.1,), rng=1)
        assert len(table.rows) == 1
        for column in ("grid", "random"):
            value = table.column(column)[0]
            assert 1.0 <= value <= 5.0  # the paper's ~2-step regime


class TestTable4:
    def test_dag_indifference_on_random_graphs(self):
        # On random deployments the DAG barely matters: cluster counts are
        # within a factor well below the grid pathology's 10x+ gap.
        table = run_table4(get_preset(TINY, runs=4), radii=(0.15,), rng=2)
        clusters = table.column("#clusters")
        assert abs(clusters[0] - clusters[1]) <= 0.5 * max(clusters)


class TestTable5:
    def test_grid_collapse_without_dag(self):
        # R chosen for the tiny grid's spacing (~0.09): 0.18 gives the
        # 8-neighborhood-plus regime of the paper's scenario.
        table = run_table5(TINY, radii=(0.18,), rng=3)
        rows = {row[1]: row for row in table.rows}
        assert rows["no"][2] <= 3          # near-single cluster
        assert rows["with"][2] >= 5        # many clusters with DAG
        assert rows["no"][4] > rows["with"][4]  # much deeper trees


class TestMobility:
    def test_improved_beats_basic(self):
        outcome = run_mobility_trace("vehicular", TINY, radius=0.3, rng=4)
        assert outcome.retention_percent["improved"] >= \
            outcome.retention_percent["basic"] - 5.0
        assert 0 <= outcome.retention_percent["basic"] <= 100

    @pytest.mark.parametrize("regime", ["pedestrian", "vehicular"])
    def test_delta_and_rebuild_runs_are_bit_identical(self, regime):
        delta = run_mobility_trace(regime, TINY, radius=0.3, rng=7)
        rebuild = mobility_oracle.run_mobility_trace(regime, TINY,
                                                     radius=0.3, rng=7)
        assert delta == rebuild

    def test_empty_windows_are_recorded_as_skipped(self):
        class EmptyThenSome:
            """0 nodes for two windows, then a fixed 3-node deployment."""

            def __init__(self):
                self.calls = 0
                self.positions = np.zeros((0, 2))

            def advance(self, _dt):
                self.calls += 1
                if self.calls >= 2:
                    self.positions = np.array(
                        [[0.1, 0.1], [0.15, 0.1], [0.9, 0.9]])

        for run in (run_mobility_trace, mobility_oracle.run_mobility_trace):
            outcome = run(
                "pedestrian", TINY, radius=0.3, rng=8,
                model_factory=lambda count, speeds, rng: EmptyThenSome())
            assert outcome.windows == 4
            assert outcome.skipped == 2

    def test_pedestrian_more_stable_than_vehicular(self):
        slow = run_mobility_trace("pedestrian", TINY, radius=0.3, rng=5)
        fast = run_mobility_trace("vehicular", TINY, radius=0.3, rng=5)
        assert slow.retention_percent["improved"] >= \
            fast.retention_percent["improved"]


class TestChurnDynamics:
    def test_delta_and_rebuild_epochs_are_bit_identical(self):
        from repro.experiments.churn import run_churn_epochs
        for leave, arrive in ((0.0, 0.0), (0.1, 4.0)):
            delta = run_churn_epochs(30, 0.25, leave, arrive, epochs=5,
                                     rng=14)
            rebuild = mobility_oracle.run_churn_epochs(
                30, 0.25, leave, arrive, epochs=5, rng=14)
            assert delta == rebuild


class TestComparison:
    def test_all_metrics_reported(self):
        table = run_comparison(TINY, regime="pedestrian", radius=0.3, rng=6)
        names = table.column("metric")
        assert set(names) == {"density", "degree", "lowest-id",
                              "max-min (d=2)"}
        for value in table.column("% heads retained / window"):
            assert 0.0 <= value <= 100.0
