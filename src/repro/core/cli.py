"""``cloudybench`` command-line interface.

Runs one evaluator (or the full PERFECT suite) against the configured
architectures and prints paper-style tables::

    cloudybench --eval throughput
    cloudybench --config props.toml --eval elasticity
    cloudybench --eval overall --quick
    cloudybench --eval list            # show every registered evaluator

Evaluators are resolved through the registry in
:mod:`repro.core.evalapi`; each one declares its option schema, which
``--opt name=value`` feeds (e.g. ``--eval pscore --opt n_ro_nodes=2``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.config import BenchConfig
from repro.core.evalapi import evaluator_names, evaluator_specs, get_evaluator
from repro.core.report import TextTable, outcome_table
from repro.core.runner import CloudyBench


def _evaluations() -> tuple:
    """Valid ``--eval`` values: the registry plus the two CLI-only verbs."""
    return (*evaluator_names(), "report", "list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cloudybench",
        description="CloudyBench: a testbed for cloud-native databases",
    )
    parser.add_argument("--config", help="props TOML file", default=None)
    parser.add_argument(
        "--eval", dest="evaluation", choices=_evaluations(), default="throughput",
        help="which evaluator to run ('list' shows them all)",
    )
    parser.add_argument(
        "--opt", action="append", default=None, metavar="NAME=VALUE",
        help="evaluator option (repeatable); see --eval list for schemas",
    )
    parser.add_argument(
        "--arch", action="append", default=None,
        help="architecture name (repeatable); defaults to all five SUTs",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fast preset: SF1 only, fewer concurrencies",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="master seed for workload and chaos RNGs (pins fault plans)",
    )
    parser.add_argument(
        "--out", default=None,
        help="write the --eval report markdown to this file (default stdout)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace_event timeline of the run "
             "(open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write a Prometheus-style text snapshot of the run's metrics",
    )
    return parser


def _config(args: argparse.Namespace) -> BenchConfig:
    """The props of this run; an unusable ``--config`` is a usage error."""
    if args.config and args.quick:
        raise SystemExit(
            "--config and --quick each choose the whole configuration; pass one"
        )
    if args.config:
        try:
            config = BenchConfig.from_toml(args.config)
        except (OSError, KeyError, TypeError, ValueError) as error:
            # unreadable file, unknown key, or a value of the wrong type,
            # out of range or not TOML (KeyError's str() would quote it)
            reason = error.args[0] if isinstance(error, KeyError) else error
            raise SystemExit(f"--config {args.config}: {reason}") from None
    elif args.quick:
        config = BenchConfig.quick()
    else:
        config = BenchConfig()
    if args.arch:
        config.architectures = list(args.arch)
    if args.seed is not None:
        config.seed = args.seed
    return config


def _parse_opts(args: argparse.Namespace, bench: CloudyBench) -> dict:
    """The ``--opt NAME=VALUE`` pairs, validated; bad ones are usage errors."""
    opts = {}
    for raw in args.opt or ():
        name, sep, value = raw.partition("=")
        if not sep:
            raise SystemExit(
                f"--opt expects NAME=VALUE, got {raw!r} "
                f"(booleans are spelled e.g. {raw}=true)"
            )
        opts[name] = value
    try:
        return get_evaluator(args.evaluation).validate(opts, bench.config)
    except TypeError as error:  # an option the evaluator does not have
        raise SystemExit(str(error)) from None
    except ValueError as error:
        raise SystemExit(f"--opt {error}") from None


def _print_registry() -> None:
    table = TextTable(
        ["evaluator", "options", "summary"], title="Registered evaluators"
    )
    for spec in evaluator_specs():
        # a config-backed option shows the field it falls back to
        options = ", ".join(
            f"{option.name}=<{option.config}>" if option.config
            else f"{option.name}={option.default!r}"
            for option in spec.options
        ) or "-"
        table.add_row(spec.name, options, spec.summary)
    table.print()
    print("Options (--eval NAME --opt OPTION=VALUE):")
    for spec in evaluator_specs():
        for option in spec.options:
            print(f"  {spec.name} {option.name}: {option.help}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    evaluation = args.evaluation

    if evaluation == "list":
        _print_registry()
        return 0

    config = _config(args)
    try:
        bench = CloudyBench(config)
    except KeyError as error:  # an architecture the registry does not have
        flag = "--arch" if args.arch else f"--config {args.config}"
        raise SystemExit(f"{flag}: {error.args[0]}") from None

    if evaluation == "report":
        from repro.core.summary import generate_report

        markdown = generate_report(bench)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(markdown)
            print(f"report written to {args.out}")
        else:
            print(markdown)
    else:
        opts = _parse_opts(args, bench)
        try:
            outcome = bench.run(evaluation, **opts)
        except ValueError as error:  # options valid alone, refused together
            raise SystemExit(f"--eval {evaluation}: {error}") from None
        if outcome.notes:
            print(outcome.notes)
        outcome_table(outcome).print()

    if args.trace:
        from repro.obs import write_chrome_trace

        events = write_chrome_trace(bench.observer, args.trace)
        print(f"trace written to {args.trace} ({events} events)")
    if args.metrics_out:
        from repro.obs import write_prometheus

        write_prometheus(bench.observer, args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
