"""Every definition in ``src/`` is reachable from an entry point.

A fixpoint over the AST, not a word count.  The roots are every file of
``bench/`` (its tests excluded), ``benchmarks/`` and ``examples/``, the
console script's ``main``, every ``@evaluator`` function (the registry
reaches those by name string) and the module-level statements of the
``src/`` modules (registries, ``if __name__ == "__main__"``).  From
there:

* a top-level class or function is live when a live body *uses* its
  name -- as an ``ast.Name``, an attribute or a keyword.  A comment, a
  docstring, an ``__all__`` string and an import are not uses: a name
  somebody imports and never touches keeps nothing alive, which is what
  a package ``__init__`` re-export is;
* a method is live when its class is live and a live body uses its
  name; dunders and ``asyncio.Protocol`` callbacks (the interpreter and
  the event loop call those) live with their class;
* names are matched bare, not resolved: two definitions of one name
  live and die together.

What the walk cannot reach is code only ``tests/`` runs.  Delete it with
its tests, or give it a caller.  The one other way to stay is the
allowlist below, where every entry says why; an entry for something
gone, or for something the walk reaches anyway, fails.
"""

from __future__ import annotations

import ast
import asyncio
import textwrap
from pathlib import Path
from typing import Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: every file under these is an entry point (``bench/tests`` is not)
ROOT_DIRS = ("bench", "benchmarks", "examples")
#: ``[project.scripts] cloudybench = "repro.core.cli:main"``
ENTRY_POINTS = ("main",)

#: ``function`` / ``Class`` / ``Class.method`` -> why a definition only
#: tests (or docs) use is kept.  A class entry keeps all its methods.
ALLOWED = {
    "LockManager.sanity_check":
        "invariant oracle: lock, DES and serve tests assert it holds",
    "LockManager.locks_held":
        "oracle: tests compare it with a transaction's lock footprint",
    "Database.same_content":
        "oracle: replica tests compare two databases with it",
    "ReplicationPipeline.converged":
        "oracle: the whole-database form of the lag-time consistency check, "
        "asserted by replication, chaos and recovery tests",
    "WriteAheadLog.transaction_chain":
        "oracle: WAL tests walk one txn's prev_lsn chain with it (it calls record_at)",
    "AScore.goodput_between":
        "the probe the verify skill documents for the chaos eval",
    "ShardedDatabase.all_rows":
        "oracle: router tests compare routed writes with it",
    "outcome_to_json": "the documented export API of EvalOutcome (docs/api.md)",
    "outcome_to_csv": "the documented export API of EvalOutcome (docs/api.md)",
    "EvalOutcome.to_dict":
        "the documented dict form of an outcome (docs/api.md); outcome_to_json is built on it",
    "Resource":
        "the DES reference implementation test_mva_des_crossvalidation checks MVA against",
    "Counter.merge": "what MetricsRegistry.merge folds counters with",
    "Histogram.merge":
        "bucket-wise fold of per-worker histograms (ROADMAP item 4 ships them through it)",
    "MetricsRegistry.merge":
        "folds one worker's registry into the parent's (ROADMAP item 4)",
    "SocketClient.ping":
        "client half of the wire protocol's ping op; serve tests probe liveness with it",
    "AsyncSQLClient.ping":
        "client half of the wire protocol's ping op; drain tests probe liveness with it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Definition:
    """One top-level function or class, or one method of a class."""

    def __init__(self, path: str, node: ast.AST, qualname: str,
                 owner: Optional["Definition"], body: Iterable[ast.AST]):
        self.path = path
        self.node = node
        self.qualname = qualname
        self.name = qualname.rpartition(".")[2]
        self.owner = owner
        self.names = _names(body)
        self.rooted = isinstance(node, _DEFS) and any(
            ast.unparse(d.func if isinstance(d, ast.Call) else d) == "evaluator"
            for d in node.decorator_list
        )

    def __str__(self) -> str:
        first = min([self.node.lineno, *(d.lineno for d in self.node.decorator_list)])
        lines = self.node.end_lineno - first + 1
        return f"{self.path}:{self.node.lineno} {self.qualname} ({lines} lines)"


def _names(nodes: Iterable[ast.AST]) -> Set[str]:
    """The names a body uses; an import binds a name, it does not use one."""
    used = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
    return used


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module(path: Path, rel: str) -> Tuple[List[Definition], Set[str]]:
    """The definitions of one ``src/`` module and the names its
    module-level statements use."""
    definitions, statements = [], []
    for stmt in ast.parse(path.read_text(), str(path)).body:
        if isinstance(stmt, _DEFS) and not _is_dunder(stmt.name):
            definitions.append(Definition(rel, stmt, stmt.name, None, [stmt]))
        elif isinstance(stmt, ast.ClassDef):
            protocol = "asyncio.Protocol" in map(ast.unparse, stmt.bases)
            methods = [
                child for child in stmt.body
                if isinstance(child, _DEFS) and not _is_dunder(child.name)
                and not (protocol and hasattr(asyncio.Protocol, child.name))
            ]
            # everything else -- bases, decorators, class attributes and
            # the methods somebody other than our code calls -- is the class
            rest = [child for child in ast.iter_child_nodes(stmt) if child not in methods]
            cls = Definition(rel, stmt, stmt.name, None, rest)
            definitions.append(cls)
            definitions.extend(
                Definition(rel, method, f"{stmt.name}.{method.name}", cls, [method])
                for method in methods
            )
        else:
            statements.append(stmt)
    return definitions, _names(statements)


def scan(root: Path) -> Tuple[List[Definition], Set[str]]:
    """Every definition under ``root/src`` and the names the roots use."""
    used: Set[str] = set()
    for top in ROOT_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if top == "bench" and "tests" in path.relative_to(root / top).parts:
                continue
            used |= _names([ast.parse(path.read_text(), str(path))])
    definitions: List[Definition] = []
    for path in sorted((root / "src").rglob("*.py")):
        found, names = _module(path, str(path.relative_to(root)))
        definitions += found
        used |= names
    return definitions, used


def unreachable(definitions: List[Definition], used: Set[str],
                rooted: Iterable[str] = ()) -> List[Definition]:
    """The definitions no root reaches; a dead class stands for its methods."""
    rooted = set(rooted)
    used = set(used)
    live = set()
    pending = [
        d for d in definitions
        if d.rooted or d.qualname in rooted or (d.owner and d.owner.qualname in rooted)
    ]
    while pending:
        for definition in pending:
            live.add(definition)
            used |= definition.names
        pending = [
            d for d in definitions
            if d not in live and d.name in used and (d.owner is None or d.owner in live)
        ]
    return [d for d in definitions if d not in live and (d.owner is None or d.owner in live)]


def stale(definitions: List[Definition], used: Set[str],
          allowed: Iterable[str], entry_points: Iterable[str] = ()) -> List[str]:
    """Allowlist entries that name nothing, or nothing the walk misses."""
    dead = {d.qualname for d in unreachable(definitions, used, entry_points)}
    dead |= {d.qualname for d in definitions if d.owner and d.owner.qualname in dead}
    return sorted(set(allowed) - dead)


def test_every_definition_is_named_outside_tests():
    definitions, used = scan(ROOT)
    dead = unreachable(definitions, used, {*ENTRY_POINTS, *ALLOWED})
    assert not dead, (
        "defined in src/ but reachable from no entry point (delete with its "
        "tests, or give it a caller):\n  " + "\n  ".join(map(str, dead))
    )
    entries = stale(definitions, used, ALLOWED, ENTRY_POINTS)
    assert not entries, f"allowlisted but reachable (or gone) -- drop the entry: {entries}"


def test_every_allowlist_entry_carries_a_reason():
    assert all(len(reason.split()) >= 4 for reason in ALLOWED.values())


# -- the walk itself, on a package small enough to read ----------------------

MINI = {
    "src/pkg/__init__.py": """
        from pkg.mod import reexported

        __all__ = ["in_all", "reexported"]
    """,
    "src/pkg/mod.py": '''
        """in_docstring() is documented here."""
        import asyncio

        # in_comment() is explained here

        def used():
            """See in_docstring."""
            return helper(flag=True)

        def helper(flag): ...
        def in_comment(): ...
        def in_docstring(): ...
        def in_all(): ...
        def reexported(): ...
        def registered(): ...
        def only_bench_tests(): ...

        REGISTRY = {"registered": registered}

        def dead_a():
            return dead_b()

        def dead_b():
            return dead_a()

        @evaluator(name="scored")
        def _scored():
            return Reached

        class Reached: ...

        class DeadClass:
            def method(self): ...

        class Live:
            def __repr__(self):
                return self.kept

            @property
            def kept(self): ...

            def unused(self): ...

        class Proto(asyncio.Protocol):
            def data_received(self, data): ...
            def extra(self): ...
    ''',
    "examples/run.py": """
        from pkg.mod import Live, Proto, used, in_all

        print(used(), Live(), Proto())
    """,
    "bench/tests/test_it.py": """
        from pkg.mod import only_bench_tests

        only_bench_tests()
    """,
}


def _mini(tmp_path):
    for rel, text in MINI.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return scan(tmp_path)


def test_walk_reports_what_only_prose_reexports_or_dead_code_name(tmp_path):
    dead = unreachable(*_mini(tmp_path))
    assert [d.qualname for d in dead] == [
        "in_comment", "in_docstring", "in_all", "reexported", "only_bench_tests",
        "dead_a", "dead_b",
        "DeadClass",   # stands for DeadClass.method, which is not listed
        "Live.unused",
        "Proto.extra",
    ]
    assert str(dead[0]) == "src/pkg/mod.py:12 in_comment (1 lines)"


def test_walk_roots_an_allowlisted_definition_and_what_it_calls(tmp_path):
    definitions, used = _mini(tmp_path)
    dead = {d.qualname for d in unreachable(definitions, used, {"dead_a", "DeadClass"})}
    assert not dead & {"dead_a", "dead_b", "DeadClass", "DeadClass.method"}
    assert "Live.unused" in dead


def test_stale_allowlist_entries_are_reported(tmp_path):
    definitions, used = _mini(tmp_path)
    assert stale(definitions, used, {"in_all", "Live.unused", "DeadClass.method"}) == []
    assert stale(definitions, used, {"used", "gone", "Live.kept", "in_all"}) == [
        "Live.kept", "gone", "used",
    ]
