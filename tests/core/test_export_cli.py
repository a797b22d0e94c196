"""Tests for the command-line interface."""

import pytest

from repro.core.cli import build_parser, main


class TestCli:
    def test_parser_evaluations(self):
        parser = build_parser()
        args = parser.parse_args(["--eval", "pscore", "--quick"])
        assert args.evaluation == "pscore"
        assert args.quick

    def test_unknown_evaluation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--eval", "nonsense"])

    def test_throughput_eval(self, capsys):
        assert main(["--eval", "throughput", "--quick", "--arch", "cdb3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "cdb3" in out

    def test_pscore_eval(self, capsys):
        assert main(["--eval", "pscore", "--quick", "--arch", "aws_rds"]) == 0
        out = capsys.readouterr().out
        assert "P-Score" in out

    def test_failover_eval(self, capsys):
        assert main(["--eval", "failover", "--quick", "--arch", "cdb4"]) == 0
        out = capsys.readouterr().out
        assert "Fail-over" in out

    def test_config_file(self, tmp_path, capsys):
        props = tmp_path / "props.toml"
        props.write_text(
            """
[workload]
scale_factors = [1]
concurrencies = [25]
architectures = ["cdb3"]
"""
        )
        assert main(["--config", str(props), "--eval", "throughput"]) == 0
        out = capsys.readouterr().out
        assert "25" in out


class TestCliRemainingEvals:
    def test_elasticity_eval(self, capsys):
        assert main(["--eval", "elasticity", "--quick", "--arch", "cdb3"]) == 0
        assert "Elasticity" in capsys.readouterr().out

    def test_multitenancy_eval(self, capsys):
        assert main(["--eval", "multitenancy", "--quick", "--arch", "cdb2"]) == 0
        assert "Multi-tenancy" in capsys.readouterr().out

    def test_lagtime_eval(self, capsys):
        assert main(["--eval", "lagtime", "--quick", "--arch", "cdb4"]) == 0
        out = capsys.readouterr().out
        assert "Replication lag" in out

    def test_overall_eval(self, capsys):
        assert main(["--eval", "overall", "--quick", "--arch", "cdb4"]) == 0
        out = capsys.readouterr().out
        assert "Overall performance" in out


class TestReport:
    def test_generate_report_contains_all_sections(self):
        from repro.core import BenchConfig, CloudyBench, generate_report

        config = BenchConfig.quick()
        config.architectures = ["cdb4"]
        config.lag_transactions = 40
        markdown = generate_report(CloudyBench(config))
        for section in ("Throughput", "P-Score", "Elasticity",
                        "Multi-tenancy", "Fail-over", "Replication lag",
                        "Overall"):
            assert section in markdown
        assert "cdb4" in markdown

    def test_cli_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["--eval", "report", "--quick", "--arch", "cdb4",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "# CloudyBench report" in out.read_text()
