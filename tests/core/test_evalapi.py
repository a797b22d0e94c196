"""Tests for the unified evaluator API: registry, outcomes, CLI options."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import BenchConfig
from repro.core.evalapi import (
    EvalOption,
    EvalOutcome,
    EvaluatorSpec,
    evaluator_names,
    evaluator_specs,
    get_evaluator,
)
from repro.core.cli import build_parser, main
from repro.core.export import outcome_to_csv, outcome_to_json
from repro.core.report import outcome_table
from repro.core.runner import CloudyBench


@pytest.fixture(scope="module")
def bench():
    config = BenchConfig.quick()
    config.architectures = ["aws_rds", "cdb3"]
    config.measure_window_s = 300.0
    config.lag_transactions = 40
    config.lag_concurrency = 4
    return CloudyBench(config)


class TestRegistry:
    def test_registry_covers_the_paper_evaluations(self):
        names = evaluator_names()
        assert names == tuple(sorted(names))
        for expected in (
            "throughput", "pscore", "elasticity", "multitenancy",
            "failover", "lagtime", "chaos", "oltp", "overall",
        ):
            assert expected in names

    def test_specs_are_complete(self):
        for spec in evaluator_specs():
            assert isinstance(spec, EvaluatorSpec)
            assert spec.title
            assert spec.summary
            assert callable(spec.runner)

    def test_unknown_evaluator_raises(self):
        with pytest.raises(KeyError):
            get_evaluator("no-such-eval")

    def test_validate_fills_defaults(self):
        spec = get_evaluator("overall")
        opts = spec.validate({})
        assert opts == {"duration_s": 300.0}

    def test_validate_rejects_unknown_option(self):
        spec = get_evaluator("pscore")
        with pytest.raises(TypeError):
            spec.validate({"bogus": 1})

    def test_run_rejects_unknown_option(self, bench):
        with pytest.raises(TypeError):
            bench.run("pscore", bogus=1)


class TestOutcomes:
    def test_every_evaluator_returns_an_outcome(self, bench):
        for name in ("throughput", "pscore", "multitenancy", "failover"):
            outcome = bench.run(name)
            assert isinstance(outcome, EvalOutcome)
            assert outcome.name == name
            assert outcome.title
            assert outcome.headers
            assert outcome.rows
            assert all(len(row) == len(outcome.headers) for row in outcome.rows)
            assert outcome.payload is not None

    def test_outcome_carries_obs_snapshot(self, bench):
        outcome = bench.run("pscore")
        assert isinstance(outcome.obs, dict)

    def test_overall_outcome_scores(self, bench):
        outcome = bench.run("overall")
        assert set(outcome.scores) >= {
            "o.aws_rds", "o.cdb3", "o_star.aws_rds", "o_star.cdb3",
        }
        assert all(value > 0 for value in outcome.scores.values())
        # results are cached per underlying computation
        assert bench.run("elasticity").payload is bench.run("elasticity").payload

    def test_score_card_shows_the_scores_each_evaluation_publishes(self, bench):
        published = {}
        for name in ("pscore", "elasticity", "multitenancy", "lagtime", "failover"):
            published.update(bench.run(name).scores)
        card = bench.run("overall").payload
        assert set(card) == {"aws_rds", "cdb3"}
        for arch, scores in card.items():
            assert (
                scores.p, scores.e1, scores.t, scores.c_ms, scores.f_s, scores.r_s
            ) == tuple(
                published[f"{key}.{arch}"]
                for key in ("p", "e1", "t", "c_ms", "f_s", "r_s")
            )

    def test_payload_is_memoised_but_obs_is_taken_per_call(self):
        bench = CloudyBench(BenchConfig.quick())
        before = bench.run("pscore")
        bench.observer.metrics.counter("test.between_runs").inc()
        after = bench.run("pscore")
        assert after.payload is before.payload
        assert after.rows is before.rows
        assert "test.between_runs" not in before.obs["metrics"]["counters"]
        assert after.obs["metrics"]["counters"]["test.between_runs"] == 1

    def test_each_option_set_keeps_its_own_memo_entry(self):
        config = BenchConfig.quick()
        config.chaos_duration_s = 4.0
        bench = CloudyBench(config)
        open_loop = bench.run("oltp", arrival="poisson")
        closed = bench.run("oltp")
        assert closed.payload is not open_loop.payload
        # neither run evicted the other
        assert bench.run("oltp", arrival="poisson").payload is open_loop.payload
        assert bench.run("oltp").payload is closed.payload
        assert bench.run("oltp", arrival="closed").payload is closed.payload

    def test_option_changes_the_result(self, bench):
        one = bench.run("pscore", n_ro_nodes=1)
        three = bench.run("pscore", n_ro_nodes=3)
        assert one.rows != three.rows

    def test_to_dict_roundtrips_through_json(self, bench):
        outcome = bench.run("failover")
        data = json.loads(outcome_to_json(outcome))
        assert data["name"] == "failover"
        assert data["headers"] == list(outcome.headers)
        assert len(data["rows"]) == len(outcome.rows)
        assert data["scores"]

    def test_outcome_to_csv(self, bench, tmp_path):
        outcome = bench.run("pscore")
        out = tmp_path / "pscore.csv"
        with out.open("w", newline="") as handle:
            written = outcome_to_csv(outcome, handle)
        assert written == len(outcome.rows)
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == outcome.headers[0]
        assert len(lines) == len(outcome.rows) + 1

    def test_outcome_table_renders(self, bench, capsys):
        outcome_table(bench.run("multitenancy")).print()
        printed = capsys.readouterr().out
        assert "Multi-tenancy" in printed


class TestCli:
    def test_parser_accepts_registry_names_and_list(self):
        parser = build_parser()
        for name in (*evaluator_names(), "report", "list"):
            assert parser.parse_args(["--eval", name]).evaluation == name
        with pytest.raises(SystemExit):
            parser.parse_args(["--eval", "nonsense"])

    def test_eval_list_prints_registry(self, capsys):
        main(["--eval", "list"])
        printed = capsys.readouterr().out
        for name in evaluator_names():
            assert name in printed
        assert "duration_s" in printed  # option schemas are shown

    def test_eval_list_prints_every_options_help(self, capsys):
        main(["--eval", "list"])
        printed = capsys.readouterr().out
        options = [option for spec in evaluator_specs() for option in spec.options]
        assert options and all(option.help for option in options)
        for option in options:
            assert option.help in printed

    def test_opt_flag_parses_and_types(self, capsys):
        main(["--quick", "--arch", "cdb3", "--eval", "pscore",
              "--opt", "n_ro_nodes=2"])
        assert "P-Score" in capsys.readouterr().out

    def test_bad_opt_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--quick", "--arch", "cdb3", "--eval", "pscore",
                  "--opt", "bogus=2"])


class TestOptRanges:
    """Out-of-range ``--opt`` values are usage errors, not tracebacks."""

    @pytest.mark.parametrize("evaluation,opt", [
        ("overload", "arrival=bogus"),
        ("scaleout-real", "cross=2.0"),
        ("scaleout-real", "shards=0"),
        ("scaleout-real", "txns=0"),
        ("serve", "connections=0"),
        ("scaleout-real", "shards="),
        ("serve", "connections="),
        ("serve", "txns=-1"),
        ("scaleout-real", "arrival=poisson:nan"),
        ("oltp", "arrival=burst:inf,2"),
        ("overall", "duration_s=0"),
        ("pscore", "n_ro_nodes=-1"),
    ])
    def test_bad_value_is_a_one_line_usage_error(self, evaluation, opt):
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro.core.cli", "--quick",
             "--eval", evaluation, "--opt", opt],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        (message,) = done.stderr.strip().splitlines()
        assert message.startswith(f"--opt {opt.split('=')[0]}: ")

    @pytest.mark.parametrize("evaluation,opts,option", [
        ("pscore", {"n_ro_nodes": -1}, "n_ro_nodes"),
        ("pscore", {"n_ro_nodes": "two"}, "n_ro_nodes"),
        ("pscore", {"n_ro_nodes": [2]}, "n_ro_nodes"),
        ("overall", {"duration_s": 0}, "duration_s"),
    ])
    def test_programmatic_values_are_validated_like_cli_ones(
        self, bench, evaluation, opts, option
    ):
        with pytest.raises(ValueError, match=f"^{option}: "):
            bench.run(evaluation, **opts)

    def test_programmatic_values_are_coerced_like_cli_ones(self, bench):
        # one coercion path: a numeric string is the number, as on the CLI
        assert (
            bench.run("pscore", n_ro_nodes="2").payload
            is bench.run("pscore", n_ro_nodes=2).payload
        )

    def test_list_option_spellings_share_one_memo_entry(self):
        config = BenchConfig.quick()
        config.shard_txns = 20
        bench = CloudyBench(config)
        text = bench.run("scaleout-real", shards="1,2")
        assert bench.run("scaleout-real", shards=[1, 2]).payload is text.payload

    def test_config_backed_options_name_real_config_fields(self):
        config = BenchConfig()
        for spec in evaluator_specs():
            for option in spec.options:
                if option.config is not None:
                    assert hasattr(config, option.config), (spec.name, option.name)


class TestConfigErrors:
    """An unusable ``--config`` / ``--arch`` is a usage error too."""

    @pytest.mark.parametrize("props,extra,flag,says", [
        (None, ["--arch", "nope"], "--arch", "unknown architecture 'nope'"),
        (None, ["--config", "{missing}"], "--config", "No such file"),
        ("[workload]\nbogus = 1\n", [], "--config", "unknown config key workload.'bogus'"),
        ("shard_txns = 0\n", [], "--config", "shard_txns must be >= 1"),
        ('qos_enabled = "maybe"\n', [], "--config", "qos_enabled must be a boolean"),
        ("shard_counts = []\n", [], "--config", "shard_counts must list at least one"),
        ("concurrencies = 5\n", [], "--config", "not iterable"),
        ("seed = = 1\n", [], "--config", "line 1"),
        ('architectures = ["nope"]\n', [], "--config", "unknown architecture 'nope'"),
        ("seed = 3\n", ["--quick"], "--config", "--quick"),
    ], ids=["arch", "missing-file", "unknown-key", "bad-value",
            "option-parser-value", "empty-list", "bad-type", "bad-toml",
            "props-arch", "config-and-quick"])
    def test_one_line_naming_the_flag(self, tmp_path, props, extra, flag, says):
        argv = ["--eval", "pscore"]
        if props is not None:
            (tmp_path / "props.toml").write_text(props)
            argv += ["--config", str(tmp_path / "props.toml")]
        argv += [arg.format(missing=tmp_path / "missing.toml") for arg in extra]
        with pytest.raises(SystemExit) as raised:
            main(argv)
        (message,) = str(raised.value.code).splitlines()  # a str code: exit 1, no traceback
        assert message.startswith(flag) and says in message


class TestBoolOpts:
    """--opt boolean handling: ``shed=true`` works, bare ``--opt shed``
    is a clean usage error (bool("false") is True, so booleans need a
    dedicated parser and an explicit spelling hint)."""

    def test_bool_opt_false_actually_disables(self, capsys):
        main(["--quick", "--arch", "cdb3", "--eval", "overload",
              "--opt", "qos=false"])
        assert "qos off" in capsys.readouterr().out

    def test_bool_opt_true(self, capsys):
        main(["--quick", "--arch", "cdb3", "--eval", "overload",
              "--opt", "qos=true"])
        assert "qos on" in capsys.readouterr().out

    def test_bare_opt_is_a_clean_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--arch", "cdb3", "--eval", "overload",
                  "--opt", "qos"])
        message = str(excinfo.value)
        assert "NAME=VALUE" in message and "qos=true" in message

    def test_bad_bool_value_is_a_clean_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--quick", "--arch", "cdb3", "--eval", "overload",
                  "--opt", "qos=maybe"])
        assert "boolean" in str(excinfo.value)
