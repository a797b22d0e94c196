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
from fnmatch import fnmatchcase
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


def _files(root: Path, dirs: Iterable[str]) -> Iterable[Path]:
    """Every ``.py`` file under ``root/<dir>`` for ``dirs``, ``bench/tests``
    excepted: those are tests."""
    for top in dirs:
        for path in sorted((root / top).rglob("*.py")):
            if not (top == "bench" and "tests" in path.relative_to(root / top).parts):
                yield path


def scan(root: Path) -> Tuple[List[Definition], Set[str]]:
    """Every definition under ``root/src`` and the names the roots use."""
    used: Set[str] = set()
    for path in _files(root, ROOT_DIRS):
        used |= _names([ast.parse(path.read_text(), str(path))])
    definitions: List[Definition] = []
    for path in sorted((root / "src").rglob("*.py")):
        found, names = _module(path, str(path.relative_to(root)))
        definitions += found
        used |= names
    return definitions, used


def reachable(definitions: List[Definition], used: Set[str],
              rooted: Iterable[str] = ()) -> Set[Definition]:
    """The definitions some root reaches."""
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
    return live


def unreachable(definitions: List[Definition], used: Set[str],
                rooted: Iterable[str] = ()) -> List[Definition]:
    """The definitions no root reaches; a dead class stands for its methods."""
    live = reachable(definitions, used, rooted)
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


# -- every knob has a product setter, every stored value a product reader -----
#
# A defaulted parameter of a live definition is a knob; some call in
# SETTER_DIRS must turn it -- by keyword, by position, or through ``*`` /
# ``**`` forwarding that can carry it (see ``setters``).  Callees match by
# bare name, as above; a class's ``__init__`` also matches calls of the
# class (and of subclasses that inherit it) and ``super().__init__``.
# Tests are not setters.  A knob only a test turns is a way to configure
# the product that the product never takes: its default is the behaviour,
# and what other values reach is code no run executes.  Where a test must
# turn one to reach a fake or a fault, KNOBS_ALLOWED names that seam.
#
# A dataclass field with a plain default is a knob too (``Class(field)``):
# a parameter of the generated ``__init__``.  It is set by a call of the
# class, by a ``replace(..., field=...)`` keyword and -- unless the class is
# frozen -- by an attribute store.  ``field(default_factory=...)`` and
# ``field(init=False)`` are no parameters.
#
# Every field of a ``src/`` dataclass is a value the product stores, and
# something in SETTER_DIRS must read it -- an attribute load, a ``getattr``
# string or an ``EvalOption(config=...)`` string -- outside the factories
# that fill in the SUT specs.  Storing is not reading: an assignment, a
# ``+=`` and a subscript store (``stats.applied_at[txn] = now``) write.

#: every call under these can set a parameter, every load can read a field
SETTER_DIRS = ("src", "bench", "benchmarks", "examples")
#: the five SUT factories: they set every field, so their reads do not count
FACTORIES = ("aws_rds", "cdb1", "cdb2", "cdb3", "cdb4")

#: ``function(param)`` / ``Class(field)`` / ``Class.field`` -> the props
#: file, fake, fault seam, oracle or dynamic dispatch that sets (or reads)
#: it where a bare-name match cannot see it; ``Class(*)`` covers every
#: knob of the class
KNOBS_ALLOWED = {
    "BenchConfig(*)":
        "the user's props file sets them: from_dict builds cls(**flat) from the "
        "TOML keys docs/props.md documents",
    "ServerConfig(max_frame)":
        "fake seam: frame-cap tests shrink it so an oversized statement takes "
        "a kilobyte, not a megabyte past wire.MAX_FRAME_BYTES",
    "SQLServer.stop(drain)":
        "fault seam: drain tests stop a loaded server through the graceful "
        "handover; ROADMAP item 5's drain cell table is its next caller",
    "Database._update(keys_unchanged)":
        "the executor calls it through the alias db_update = self._db._update",
    "HAFleet.__init__(ack_mode)":
        "HAEvaluator.run calls build_pairs_fleet(fleet_cls=HAFleet, ack_mode=...), "
        "which builds fleet_cls(n, **fleet_kwargs)",
    "HAFleet.__init__(clock)":
        "HAEvaluator.run calls build_pairs_fleet(fleet_cls=HAFleet, clock=...), "
        "which builds fleet_cls(n, **fleet_kwargs)",
    "HAFleet.__init__(lease)":
        "HAEvaluator.run calls build_pairs_fleet(fleet_cls=HAFleet, lease=...), "
        "which builds fleet_cls(n, **fleet_kwargs)",
    "SqlStmts.__init__(specs)":
        "SqlStmts.from_file, which the workloads load statements with, builds "
        "it as cls(SqlReader(path).read())",
    "load_sales_fleet(chaos)":
        "fault seam: 2PC recovery tests crash the coordinator of a loaded "
        "sales fleet through a chaos plan",
    "run_cell(victim)":
        "dr/crashmatrix's cell table sets it; sweep() calls run_cell(**coords) per cell",
    "Deadline.after(clock)":
        "fake seam: deadline tests run it on a manual clock instead of time.monotonic",
    "WriteAheadLog.arm_crash(mode)":
        "fault seam: recovery tests inject the torn-write crash mode through it",
    "Resource.__init__(capacity)":
        "the DES reference implementation: its tests set the server count "
        "of the queue the MVA is checked against",
    "Database.__init__(plan_cache_size)":
        "fake seam: plan-cache tests shrink the cache to reach eviction in a few statements",
    "RecoveryReport.corrupt_from_lsn":
        "fault detection: where a restart found the first corrupt record, asserted "
        "by the WAL corruption tests",
    "DRResult.scrub":
        "oracle: the DR evaluator tests assert its pre-restore scrub repaired the "
        "ARCHIVE_CORRUPT flip",
    "DRResult.rpo_explained_violations":
        "oracle: the lagged-mode DR test asserts the time-travel anomalies it "
        "excused from the violations exist",
    "RestoreReport.standbys":
        "oracle: the HA restore test asserts every pair got its standby re-bootstrapped",
    **{
        f"ExtendedMix.t{n}":
            "dynamic dispatch: WeightedMix.weights and its validation read every "
            "field through dataclasses.fields"
        for n in range(5, 9)
    },
}


def _parameters(definition: ast.AST, method: bool) -> List[Tuple[int, str]]:
    """``(position, name)`` of each defaulted parameter; a keyword-only one
    has no position (``-1``), and a method's first parameter is its own."""
    args = definition.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    static = any(ast.unparse(d) == "staticmethod" for d in definition.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    found = [(i - skip, positional[i]) for i in range(first, len(positional))]
    found += [(-1, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def _frozen(cls: ast.ClassDef) -> Optional[bool]:
    """Whether a ``@dataclass`` is frozen; ``None`` for any other class."""
    for decorator in map(ast.unparse, cls.decorator_list):
        if decorator.rpartition(".")[2].startswith("dataclass"):
            return "frozen=True" in decorator
    return None


def _fields(cls: ast.ClassDef) -> List[Tuple[int, str]]:
    """``(position, name)`` of each dataclass field with a plain default: a
    parameter of the generated ``__init__``.  ``field(default_factory=...)``
    (an accumulator) and ``field(init=False)`` are no parameters."""
    found, position = [], 0
    for a in cls.body:
        if not isinstance(a, ast.AnnAssign) or "ClassVar" in ast.unparse(a.annotation):
            continue
        call = a.value if isinstance(a.value, ast.Call) and ast.unparse(
            a.value.func).rpartition(".")[2] == "field" else None
        options = {k.arg: ast.unparse(k.value) for k in call.keywords} if call else {}
        if options.get("init") == "False":
            continue
        if a.value is not None and (call is None or "default" in options):
            found.append((position, a.target.id))
        position += 1
    return found


def knobs(definitions: List[Definition],
          live: Set[Definition]) -> List[Tuple[str, str, str, int]]:
    """``(callee name, key, parameter, position)`` for every defaulted
    parameter of a live function or method and every plain-defaulted field
    of a live dataclass; an ``__init__`` yields one row per name that
    reaches it, a field one more per other way to set it: a ``replace()``
    keyword and, unless the class is frozen, an attribute store (which
    ``setters`` files as a keyword of ``setattr``)."""
    inherits = {}  # class -> the classes whose __init__ it runs when called
    for cls in (d for d in definitions if isinstance(d.node, ast.ClassDef)):
        own = _frozen(cls.node) is not None or any(
            isinstance(c, _DEFS) and c.name == "__init__" for c in cls.node.body)
        inherits[cls.name] = (own, {ast.unparse(b).rpartition(".")[2] for b in cls.node.bases})
    found = []
    for d in live:
        if isinstance(d.node, _DEFS):
            found += [(d.name, f"{d.qualname}({p})", p, i)
                      for i, p in _parameters(d.node, d.owner is not None)]
            continue
        callers = {d.name}
        grown = True
        while grown:
            more = {c for c, (own, bases) in inherits.items() if not own and bases & callers}
            grown = bool(more - callers)
            callers |= more
        for fn in d.node.body:
            if not (isinstance(fn, _DEFS) and _is_dunder(fn.name)):
                continue
            names = callers if fn.name == "__init__" else {fn.name}
            for i, p in _parameters(fn, True):
                found += [(name, f"{d.qualname}.{fn.name}({p})", p, i) for name in names]
        frozen = _frozen(d.node)
        if frozen is None:
            continue
        for i, p in _fields(d.node):
            key = f"{d.qualname}({p})"
            found += [(name, key, p, i) for name in callers]
            found += [("replace", key, p, -1)] + ([] if frozen else [("setattr", key, p, -1)])
    return found


def setters(root: Path) -> dict:
    """Callee name -> ``(most positional arguments, keywords)`` over every
    call under ``SETTER_DIRS``.

    Forwarding passes only what it can carry.  The ``*args`` / ``**kwargs``
    a function received pass on the extra positions and the keywords its
    own callers pass it.  Any other ``**mapping`` passes the names its file
    spells as mapping keys: ``dict(...)`` keywords and string constants (a
    dict key, a pytest parameter, an argparse flag: ``"--ack-mode"`` is
    ``ack_mode``).  Any other ``*sequence`` passes no position the walk
    can count.

    An attribute store -- ``obj.name = v``, ``obj.name += v`` or
    ``setattr(obj, "name", v)`` -- is filed as ``setattr(name=...)``."""
    calls = {"setattr": (0, set())}
    # (callee, the function whose * / ** it forwards, that function's
    # named positions, the call's own positions, forwards *, forwards **)
    forwards = []
    for top in SETTER_DIRS:
        for path in _files(root, [top]):
            tree = ast.parse(path.read_text(), str(path))
            spelled = {n.value.lstrip("-").replace("-", "_") for n in ast.walk(tree)
                       if isinstance(n, ast.Constant) and isinstance(n.value, str)}
            spelled |= {k.arg for n in ast.walk(tree) if isinstance(n, ast.Call)
                        and ast.unparse(n.func) == "dict" for k in n.keywords if k.arg}
            stores = {n.attr for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
            stores |= {n.args[1].value for n in ast.walk(tree) if isinstance(n, ast.Call)
                       and ast.unparse(n.func) == "setattr" and len(n.args) > 1
                       and isinstance(n.args[1], ast.Constant)}
            calls["setattr"] = (calls["setattr"][0], calls["setattr"][1] | stores)
            callees, enclosing = {}, {}  # a call -> its callee names / function
            methods = set()
            for node in ast.walk(tree):  # breadth first: inner scopes win
                if isinstance(node, ast.ClassDef):
                    bases = [ast.unparse(b).rpartition(".")[2] for b in node.bases]
                    callees.update({call: bases for call in ast.walk(node)
                                    if isinstance(call, ast.Call)
                                    and ast.unparse(call.func) == "super().__init__"})
                    enclosing.update({fn: node.name for fn in node.body
                                      if isinstance(fn, _DEFS) and fn.name == "__init__"})
                    methods.update(fn for fn in node.body if isinstance(fn, _DEFS))
                elif isinstance(node, _DEFS):
                    enclosing.update({call: node for call in ast.walk(node)
                                      if isinstance(call, ast.Call)})
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                fn = enclosing.get(node)
                args = fn.args if fn else None
                star = [a.value for a in node.args if isinstance(a, ast.Starred)]
                double = [k.value for k in node.keywords if k.arg is None]
                star_fwd = any(args and args.vararg and ast.unparse(s) == args.vararg.arg
                               for s in star)
                kw_fwd = any(args and args.kwarg and ast.unparse(d) == args.kwarg.arg
                             for d in double)
                own = len(node.args) - len(star)
                keys = {k.arg for k in node.keywords if k.arg}
                if len(double) > kw_fwd:
                    keys |= spelled
                for name in callees.get(node, [name] if name else []):
                    positional, keywords = calls.get(name, (0, set()))
                    calls[name] = (max(positional, own), keywords | keys)
                    if star_fwd or kw_fwd:
                        named = len(args.posonlyargs + args.args) - (fn in methods)
                        forwards.append((name, enclosing.get(fn, fn.name), named, own,
                                         star_fwd, kw_fwd))
    grown = True
    while grown:
        grown = False
        for name, source, named, own, star_fwd, kw_fwd in forwards:
            passed, passed_keys = calls.get(source, (0, set()))
            positional, keywords = calls.get(name, (0, set()))
            more = (max(positional, own + passed - named) if star_fwd else positional,
                    keywords | passed_keys if kw_fwd else keywords)
            if more != (positional, keywords):
                calls[name] = more
                grown = True
    return calls


def unset(definitions: List[Definition], live: Set[Definition], calls: dict) -> List[str]:
    """The knobs no call sets."""
    found, is_set = set(), set()
    for name, key, parameter, position in knobs(definitions, live):
        found.add(key)
        positional, keywords = calls.get(name, (0, set()))
        if parameter in keywords or 0 <= position < positional:
            is_set.add(key)
    return sorted(found - is_set)


def _skipping(node: ast.AST, skip: Set[str]) -> Iterable[ast.AST]:
    """``ast.walk`` that does not enter a class or function named in ``skip``."""
    pending = [node]
    while pending:
        node = pending.pop()
        yield node
        pending += [child for child in ast.iter_child_nodes(node)
                    if getattr(child, "name", None) not in skip]


def dataclass_fields(root: Path) -> dict:
    """``Class.field`` -> field for every field of a ``@dataclass`` in ``src/``."""
    fields = {}
    for path in sorted((root / "src").rglob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(cls, ast.ClassDef) and _frozen(cls) is not None:
                fields.update({f"{cls.name}.{a.target.id}": a.target.id for a in cls.body
                               if isinstance(a, ast.AnnAssign)
                               and "ClassVar" not in ast.unparse(a.annotation)})
    return fields


def unread_fields(root: Path, factories: Iterable[str] = FACTORIES) -> List[str]:
    """``Class.field`` for each dataclass field nothing in SETTER_DIRS reads."""
    read = set()
    for path in _files(root, SETTER_DIRS):
        tree = ast.parse(path.read_text(), str(path))
        # ``a.f[k] = v`` loads ``a.f`` only to store into it
        stored = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                while isinstance(node, ast.Subscript):
                    node = node.value
                stored.add(node)
        for node in _skipping(tree, set(factories)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node not in stored:
                    read.add(node.attr)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                read.add(node.args[1].value)
            elif (isinstance(node, ast.keyword) and node.arg == "config"
                  and isinstance(node.value, ast.Constant)):
                read.add(node.value.value)  # EvalOption(config=...) getattr()s it
    return sorted(key for key, field in dataclass_fields(root).items() if field not in read)


def findings(root: Path, rooted: Iterable[str] = (),
             factories: Iterable[str] = FACTORIES) -> List[str]:
    """Every knob nothing sets and every dataclass field nothing reads."""
    definitions, used = scan(root)
    live = reachable(definitions, used, rooted)
    return unset(definitions, live, setters(root)) + unread_fields(root, factories)


def flagged(found: Iterable[str], allowed: dict) -> Tuple[List[str], List[str]]:
    """The findings ``allowed`` does not excuse, and the entries of
    ``allowed`` that excuse nothing found (set, read, or gone)."""
    found = set(found)
    excused = {entry: {f for f in found if fnmatchcase(f, entry)} for entry in allowed}
    left = found.difference(*excused.values())
    return sorted(left), sorted(entry for entry, covers in excused.items() if not covers)


def test_every_knob_has_a_setter():
    left, entries = flagged(findings(ROOT, {*ENTRY_POINTS, *ALLOWED}), KNOBS_ALLOWED)
    assert not left, (
        "a parameter nothing outside tests/ sets, or a dataclass field nothing "
        "outside tests/ reads (delete it: a parameter's default becomes a "
        "literal, a field goes with the code that computes it):\n  "
        + "\n  ".join(left)
    )
    assert not entries, f"knob allowlisted but set or read (or gone) -- drop the entry: {entries}"
    assert all(len(reason.split()) >= 4 for reason in KNOBS_ALLOWED.values())


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
    "src/pkg/knobs.py": """
        class Base:
            def __init__(self, by_super=0): ...

        class Child(Base):
            def __init__(self):
                super().__init__(1)

        def turned(by_position=0, by_keyword=0): ...
        def forwarded(through_kwargs=0, not_carried=0): ...
        def relayed(by_callers_kwargs=0): ...
        def never_turned(unset=0): ...

        def relay(**kwargs):
            return relayed(**kwargs)
    """,
    "src/pkg/specs.py": """
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Spec:
            read: float = 1.0
            by_name: float = 1.0
            by_option: str = ""
            only_tested: float = 0.0

        @dataclass
        class Stats:
            counted: int = 0
            seen: dict = field(default_factory=dict)
            shown: int = 0

        def factory():
            spec = Spec(2.0, 1.0, "mode", 0.0)
            assert spec.only_tested == 0.0  # a factory's read sets, it does not use
            return spec

        def model(spec):
            option = Option("mode", config="by_option")
            return spec.read + getattr(spec, "by_name"), option

        def tally(stats, key):
            stats.counted += 1
            stats.seen[key] = stats.shown
            return stats
    """,
    "src/pkg/policy.py": """
        from dataclasses import dataclass, field, replace

        @dataclass(frozen=True)
        class Policy:
            turned: int = 0
            replaced: int = 0
            stored: int = 0
            never: int = 0

        @dataclass
        class Tally:
            log: list = field(default_factory=list)
            hidden: int = field(init=False, default=0)
            count: int = 0

        def tune(policy, tally):
            tally.count += 1
            policy.stored = 1  # raises: a frozen field takes no store
            policy = replace(policy, replaced=1)
            return (policy.turned + policy.replaced + policy.stored + policy.never
                    + len(tally.log) + tally.hidden + tally.count)
    """,
    "examples/knobs.py": """
        from pkg.knobs import Child, forwarded, never_turned, relay, turned
        from pkg.policy import Policy, Tally, tune
        from pkg.specs import Stats, factory, model, tally

        options = {"through_kwargs": 1}
        turned(1)
        turned(by_keyword=1)
        forwarded(**options)
        relay(by_callers_kwargs=1)
        never_turned()
        print(Child(), model(factory()), tally(Stats(shown=1), "key"))
        print(tune(Policy(1), Tally()))
    """,
    "tests/test_pkg.py": """
        from pkg.knobs import never_turned
        from pkg.specs import Stats, factory

        never_turned(unset=1)
        assert factory().only_tested == 0.0
        assert Stats().counted == 0 and Stats().seen == {}
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


def test_knob_walk_flags_only_what_no_call_sets_and_src_never_reads(tmp_path):
    definitions, used = _mini(tmp_path)
    live = reachable(definitions, used)
    # a ** mapping carries only the keys spelled beside it, and the
    # test's never_turned(unset=1) is no setter
    found = unset(definitions, live, setters(tmp_path))
    assert [key for key in found if not key.startswith("Policy(")] == [
        "forwarded(not_carried)", "never_turned(unset)",
    ]


def test_knob_walk_flags_a_dataclass_default_nothing_sets(tmp_path):
    definitions, used = _mini(tmp_path)
    live = reachable(definitions, used)
    # Policy(1) sets turned by position and replace() sets replaced;
    # a store sets Tally.count but not the frozen Policy.stored.
    # Tally.log (a default_factory) and Tally.hidden (init=False) are
    # no parameters, and Spec's and Stats' fields are all set by calls.
    assert [key for key in unset(definitions, live, setters(tmp_path))
            if key[0].isupper()] == ["Policy(never)", "Policy(stored)"]


def test_allowlisted_seam_is_not_flagged(tmp_path):
    _mini(tmp_path)
    found = findings(tmp_path, factories=("factory",))
    assert "never_turned(unset)" in flagged(found, {})[0]
    seam = {"never_turned(unset)": "the test reaches a fault through it"}
    left, entries = flagged(found, seam)
    assert "never_turned(unset)" not in left and entries == []
    # an entry for a knob something sets excuses nothing and is reported
    assert flagged(found, {"turned(by_keyword)": "set by examples/knobs.py"})[1] == [
        "turned(by_keyword)",
    ]


def test_field_walk_flags_what_only_tests_read_or_the_product_only_writes(tmp_path):
    _mini(tmp_path)
    # only_tested: read by a test and a factory; counted: only +=;
    # seen: only a subscript store.  by_name (a getattr string) and
    # by_option (an EvalOption config= string) are read.
    assert unread_fields(tmp_path, ("factory",)) == [
        "Spec.only_tested", "Stats.counted", "Stats.seen",
    ]
