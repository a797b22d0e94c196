"""Exporting results: JSON/CSV serialisation of an evaluator outcome,
for plotting outside the testbed.

Kept dependency-free (``csv`` + ``json`` from the standard library).
Nothing in the package calls these: they are the documented export API
of :class:`~repro.core.evalapi.EvalOutcome` (docs/api.md), the one
result shape every evaluator returns.
"""

from __future__ import annotations

import csv
import json
from typing import TextIO


def outcome_to_json(outcome) -> str:
    """Serialise an :class:`~repro.core.evalapi.EvalOutcome` to JSON.

    Every evaluator exports identically: name, title, table headers and
    rows, flat scores, timeline events, notes.  The native payload is
    dropped (it is not, in general, JSON-serialisable).
    """
    return json.dumps(outcome.to_dict(), indent=2, sort_keys=True)


def outcome_to_csv(outcome, out: TextIO) -> int:
    """Write an outcome's table rows as CSV. Returns the row count."""
    writer = csv.writer(out)
    writer.writerow(list(outcome.headers))
    rows = 0
    for row in outcome.rows:
        writer.writerow(list(row))
        rows += 1
    return rows
