"""One-shot markdown report over a full testbed run.

``generate_report(bench)`` runs every registered evaluator through the
unified :class:`~repro.core.evalapi.EvalOutcome` surface and renders a
single markdown document -- throughput matrix, P-Scores, elasticity,
tenancy, fail-over, replication lag, and the Table IX score card --
suitable for committing next to a paper draft or attaching to CI
output.

Wired into the CLI as ``cloudybench --eval report [--out FILE]``.
"""

from __future__ import annotations

import io
from typing import TextIO

from repro.core.evalapi import EvalOutcome
from repro.core.runner import CloudyBench

#: report sections, in paper order; each is one evaluator run
_SECTIONS = (
    ("throughput", "Throughput (Figure 5)"),
    ("pscore", "P-Score (Table V)"),
    ("elasticity", "Elasticity (Figure 6)"),
    ("multitenancy", "Multi-tenancy (Table VII)"),
    ("failover", "Fail-over (Table VIII)"),
    ("lagtime", "Replication lag (Section III-F)"),
    ("overload", "Overload protection (D-Score)"),
    ("scaleout-real", "Real scale-out (sharded fleet)"),
    ("ha", "Shard HA (R-Score)"),
    ("dr", "Disaster recovery (RPO/RTO)"),
    ("overall", "Overall (Table IX)"),
)

#: cap on per-section timeline events, to keep long runs readable
_EVENT_CAP = 12


def _heading(out: TextIO, level: int, text: str) -> None:
    out.write(f"\n{'#' * level} {text}\n\n")


def _table(out: TextIO, headers, rows) -> None:
    out.write("| " + " | ".join(str(h) for h in headers) + " |\n")
    out.write("|" + "|".join("---" for _ in headers) + "|\n")
    for row in rows:
        out.write("| " + " | ".join(str(cell) for cell in row) + " |\n")


def _events(out: TextIO, outcome: EvalOutcome) -> None:
    shown = outcome.events[:_EVENT_CAP]
    rows = [[f"{time_s:.0f}", message] for time_s, message in shown]
    hidden = len(outcome.events) - len(shown)
    if hidden > 0:
        rows.append(["...", f"({hidden} more events)"])
    _table(out, ["t (s)", "event"], rows)


def generate_report(bench: CloudyBench) -> str:
    """Run every evaluation and render the markdown report."""
    buffer = io.StringIO()
    config = bench.config

    buffer.write("# CloudyBench report\n\n")
    buffer.write(
        f"Systems: {', '.join(config.architectures)} · "
        f"scale factors {config.scale_factors} · "
        f"concurrencies {config.concurrencies} · "
        f"distribution {config.distribution}\n"
    )

    for eval_name, section_title in _SECTIONS:
        outcome = bench.run(eval_name)
        _heading(buffer, 2, section_title)
        if outcome.notes:
            buffer.write(outcome.notes + "\n\n")
        _table(buffer, outcome.headers, outcome.rows)
        if outcome.events:
            _heading(buffer, 3, "Timeline events")
            _events(buffer, outcome)

    return buffer.getvalue()
