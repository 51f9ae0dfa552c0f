"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_all_experiments_listed(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.preset == "quick"
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
