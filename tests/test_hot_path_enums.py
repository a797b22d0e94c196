"""The per-statement, per-transaction and per-record restart code reads
enum members as module globals, never through their class.

On CPython 3.11 a member load through its class (``LogKind.COMMIT``)
costs over ten times a global load, and an empty ``begin()`` +
``commit()`` used to make eight of them; a restart's verify, analysis,
redo and undo loops, and a replica's apply loop, run once per log
record, so they read the same bindings.  The hot-path modules bind the
members they read once, at module level (``COMMIT = LogKind.COMMIT``).
This walk fails, naming the function and line, on any member load
through its class inside the functions :data:`HOT_PATH` lists.  Argument
defaults and decorators run once, when the function is defined, and are
not walked; a nested function's are.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: module -> the functions (``Class.method``) or whole classes walked
HOT_PATH = {
    "src/repro/engine/database.py": (
        "Database.begin", "Database._commit", "Database._lock_row",
        "Database._insert", "Database._update", "Database._delete",
    ),
    "src/repro/engine/txn.py": ("Transaction",),
    "src/repro/engine/wal.py": (
        "WriteAheadLog.append", "WriteAheadLog._durability_point", "corrupt_records",
    ),
    "src/repro/engine/recovery.py": (
        "recover", "_apply_redo", "_apply_undo", "ReplicaApplier.apply_batch",
    ),
    "src/repro/engine/locks.py": ("LockManager.acquire",),
    "src/repro/engine/executor.py": ("Executor._select",),
    "src/repro/shard/coordinator.py": (
        "GlobalTransaction", "TxnCoordinator.commit", "TxnCoordinator.commit_many",
        "TxnCoordinator._vote_read_only", "TxnCoordinator._two_phase",
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def enum_members(trees: Iterable[ast.Module]) -> Dict[str, Set[str]]:
    """``{class name: member names}`` of every ``*Enum`` subclass."""
    members: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [base.attr if isinstance(base, ast.Attribute) else
                     getattr(base, "id", "") for base in node.bases]
            if any(name.endswith("Enum") for name in bases):
                members[node.name] = {
                    target.id
                    for statement in node.body if isinstance(statement, ast.Assign)
                    for target in statement.targets if isinstance(target, ast.Name)
                }
    return members


def _functions(tree: ast.Module, qualname: str) -> List[Tuple[str, ast.AST]]:
    """``(label, def)`` for ``Class.method`` / ``function``, or for every
    method of ``Class``.  A name that is not there raises, so a renamed
    hot-path function cannot drop out of the walk unnoticed."""
    scope, found = tree.body, None
    for part in qualname.split("."):
        found = next((node for node in scope
                      if isinstance(node, (ast.ClassDef, *_DEFS)) and node.name == part),
                     None)
        if found is None:
            raise LookupError(f"{qualname} is not defined")
        scope = found.body
    if isinstance(found, ast.ClassDef):
        return [(f"{qualname}.{node.name}", node)
                for node in found.body if isinstance(node, _DEFS)]
    return [(qualname, found)]


def class_loads(root: Path, hot_path: Mapping[str, Sequence[str]]) -> List[str]:
    """``path:line function loads Enum.MEMBER`` for every member load
    through its class in a body :data:`HOT_PATH` names."""
    trees = {path.relative_to(root).as_posix(): ast.parse(path.read_text())
             for path in sorted((root / "src").rglob("*.py"))}
    members = enum_members(trees.values())
    found = []
    for rel, qualnames in hot_path.items():
        for qualname in qualnames:
            for label, function in _functions(trees[rel], qualname):
                for statement in function.body:
                    for node in ast.walk(statement):
                        if (isinstance(node, ast.Attribute)
                                and isinstance(node.ctx, ast.Load)
                                and isinstance(node.value, ast.Name)
                                and node.attr in members.get(node.value.id, ())):
                            found.append(f"{rel}:{node.lineno} {label} loads "
                                         f"{node.value.id}.{node.attr}")
    return found


def test_hot_path_reads_no_enum_member_through_its_class():
    found = class_loads(ROOT, HOT_PATH)
    assert found == [], (
        "bind the member once at module level and read the global:\n"
        + "\n".join(found)
    )


MINI = '''
    import enum


    class Kind(enum.Enum):
        A = "a"
        B = "b"


    A = Kind.A


    class Box:
        def hot(self, kind=Kind.B):
            if kind is A:
                return Kind.B
            return Kind.__members__, Kind(kind)

        def cold(self):
            return Kind.A


    def nested():
        def inner(kind=Kind.A):
            return kind
        return inner
'''


def test_walk_flags_member_loads_in_bodies_only(tmp_path):
    path = tmp_path / "src" / "pkg" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(MINI))
    rel = "src/pkg/mod.py"
    # the default, the module-level binding and the non-member attribute
    # are not flagged; a nested def's default runs per call and is
    assert class_loads(tmp_path, {rel: ("Box.hot", "nested")}) == [
        f"{rel}:16 Box.hot loads Kind.B",
        f"{rel}:24 nested loads Kind.A",
    ]
    assert class_loads(tmp_path, {rel: ("Box",)})[-1] == f"{rel}:20 Box.cold loads Kind.A"
    with pytest.raises(LookupError, match="Box.gone"):
        class_loads(tmp_path, {rel: ("Box.gone",)})
