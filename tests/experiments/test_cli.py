"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, FLAG_READERS, build_parser, main
from repro.graph.models.registry import registered_topologies

#: The families that do not read ``--topology``.
FIXED_TOPOLOGY_FAMILIES = [
    "beacons", "energy", "figure1", "figure2", "figure3", "intensity",
    "mobility", "node-churn", "recovery", "scalability", "scaling", "table3",
]

#: The families that run without a preset.
PRESETLESS_FAMILIES = [
    "beacons", "energy", "figure1", "figure2", "figure3", "intensity",
    "node-churn", "scalability", "scaling", "table1",
]


def smoke_args(family):
    """``[family]``, plus ``--preset smoke`` if the family reads it."""
    if family in FLAG_READERS["preset"]:
        return [family, "--preset", "smoke"]
    return [family]


class TestParser:
    def test_all_experiments_listed(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.preset is None
        assert args.seed == 2024

    def test_preset_and_seed_flags(self):
        args = build_parser().parse_args(
            ["table3", "--preset", "smoke", "--seed", "7"])
        assert args.preset == "smoke"
        assert args.seed == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])


class TestJobsFlag:
    def test_jobs_2_matches_jobs_1_stdout(self, capsys):
        assert main(["table3", "--preset", "smoke", "--seed", "1",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert "Table 3" in serial
        assert main(["table3", "--preset", "smoke", "--seed", "1",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestMain:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "exact match with the paper: True" in out

    def test_figure1_runs(self, capsys):
        assert main(["figure1"]) == 0
        assert "2 clusters" in capsys.readouterr().out

    def test_table3_smoke_preset(self, capsys):
        assert main(["table3", "--preset", "smoke", "--seed", "1"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_preset_defaults_to_quick(self, capsys):
        assert main(["table3", "--seed", "1"]) == 0
        default = capsys.readouterr().out
        assert main(["table3", "--preset", "quick", "--seed", "1"]) == 0
        assert capsys.readouterr().out == default

    def test_presetless_families_are_the_unlisted_ones(self):
        assert sorted(set(EXPERIMENTS) - FLAG_READERS["preset"]) == \
            PRESETLESS_FAMILIES

    @pytest.mark.parametrize("family", PRESETLESS_FAMILIES)
    def test_preset_on_a_family_that_ignores_it_is_a_parser_error(
            self, family, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([family, "--preset", "smoke"])
        assert exit_info.value.code == 2
        assert "does not read --preset" in capsys.readouterr().err

    def test_unknown_start_method_is_a_parser_error(self, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("REPRO_MP_CONTEXT", "bogus")
        with pytest.raises(SystemExit) as exit_info:
            main(["table3", "--preset", "smoke", "--jobs", "2"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "REPRO_MP_CONTEXT" in err

    @pytest.mark.parametrize("spec", ["erdos_renyi:p=abc", "scale_free:m=abc",
                                      "erdos_renyi:count=abc"])
    def test_non_numeric_topology_parameter_is_a_parser_error(self, spec,
                                                              capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table4", "--preset", "smoke", "--topology", spec])
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_file_is_a_parser_error_naming_it(self, tmp_path,
                                                               capsys):
        path = tmp_path / "loop.edges"
        path.write_text("# repro edge list v1\n# nodes 2\n0 0\n1 1\n"
                        "# edges 1\n0 0\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["table4", "--preset", "smoke", "--seed", "1",
                  "--topology", f"file:{path}"])
        assert exit_info.value.code == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("family", FIXED_TOPOLOGY_FAMILIES)
    def test_topology_on_a_family_that_ignores_it_is_a_parser_error(
            self, family, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*smoke_args(family), "--topology", "ring"])
        assert exit_info.value.code == 2
        assert f"error: {family} does not read --topology" in \
            capsys.readouterr().err

    @pytest.mark.parametrize(
        "family", sorted(name for name in EXPERIMENTS if name != "workload"))
    def test_metric_outside_workload_is_a_parser_error(self, family, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*smoke_args(family), "--metric", "degree"])
        assert exit_info.value.code == 2
        assert f"error: {family} does not read --metric" in \
            capsys.readouterr().err


class TestDoctor:
    def test_reports_registry_and_formats(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        for name in registered_topologies():
            assert f"  {name} (" in out
        assert "graph I/O formats:" in out
        assert "shared-memory" not in out
        assert "kernel backend" not in out

    def test_clean_shm_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["doctor", "--clean-shm"])
        assert exit_info.value.code == 2
