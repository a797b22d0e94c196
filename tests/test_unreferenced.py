"""Every definition in ``src/`` is named somewhere a runtime path can start.

A crude name scan, kept crude on purpose: a ``def`` (function, method or
property) whose name occurs as a word nowhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` except at its own definition line(s) is
reachable only from ``tests/`` -- code the product does not use.  Delete
it with its tests, or give it a caller.  The ways out: an ``@evaluator``
decorator (the registry reaches those by name string), an
``asyncio.Protocol`` callback (the event loop calls it), and the
allowlist below, where every entry says why it stays.
"""

from __future__ import annotations

import ast
import asyncio
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "bench", "benchmarks", "examples")

#: name -> why a definition only tests (or docs) name is kept
ALLOWED = {
    "sanity_check": "LockManager invariant oracle: lock, DES and serve tests assert it holds",
    "locks_held": "LockManager oracle: tests compare it with a transaction's lock footprint",
    "same_content": "Database oracle: replica tests compare two databases with it",
    "converged": "ReplicationPipeline oracle: the whole-database form of the lag-time "
                 "consistency check, asserted by replication, chaos and recovery tests",
    "transaction_chain": "WriteAheadLog oracle: WAL tests walk one txn's prev_lsn chain with it",
    "goodput_between": "AScore probe the verify skill documents for the chaos eval",
    "all_rows": "ShardedDatabase oracle: router tests compare routed writes with it",
    "load_ycsb": "the one loader of the table YcsbWorkload runs against; its tests need it",
    "outcome_to_json": "the documented export API of EvalOutcome (docs/api.md)",
    "outcome_to_csv": "the documented export API of EvalOutcome (docs/api.md)",
}


def _definitions():
    """``name -> number of defs`` of the definitions only a name reaches."""
    defined = Counter()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        called_otherwise = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "asyncio.Protocol" in map(
                ast.unparse, node.bases
            ):
                called_otherwise.update(
                    child for child in node.body
                    if hasattr(asyncio.Protocol, getattr(child, "name", ""))
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d) == "evaluator"
                for d in node.decorator_list
            ):
                called_otherwise.add(node)
        defined.update(
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node not in called_otherwise
        )
    return defined


def _word_counts():
    words = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", path.read_text()))
    return words


def unreferenced():
    words = _word_counts()
    return sorted(
        name for name, count in _definitions().items()
        if words[name] <= count
        and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_is_named_outside_tests():
    found = set(unreferenced())
    stale = sorted(set(ALLOWED) - found)
    assert not stale, f"allowlisted but referenced (or gone) -- drop the entry: {stale}"
    dead = sorted(found - set(ALLOWED))
    assert not dead, (
        "defined in src/ but named nowhere in src/ bench/ benchmarks/ examples/ "
        f"(delete with its tests, or name the caller): {dead}"
    )


def test_every_allowlist_entry_carries_a_reason():
    assert all(len(reason.split()) >= 4 for reason in ALLOWED.values())
