"""A miniature transactional storage engine.

The engine backs CloudyBench's *functional* evaluations: the lag-time
evaluator really polls a replica until a committed change is visible,
the fail-over evaluator really replays the write-ahead log, and the
OLTP workload really executes SQL against tables.

Components
----------
* :mod:`repro.engine.types`   -- column/row model and schema objects.
* :mod:`repro.engine.wal`     -- write-ahead log with LSNs.
* :mod:`repro.engine.index`   -- hash and ordered indexes over row slots.
* :mod:`repro.engine.table`   -- heap tables: a slot list + indexes.
* :mod:`repro.engine.locks`   -- row-level strict 2PL, no-wait.
* :mod:`repro.engine.txn`     -- transactions and the transaction manager.
* :mod:`repro.engine.sql`     -- parser for the SQL subset used by the
  paper's decoupled statement files.
* :mod:`repro.engine.executor`-- prepared statements and execution.
* :mod:`repro.engine.recovery`-- ARIES-style analysis/redo/undo plus the
  log-replay path used by read replicas.
* :mod:`repro.engine.database`-- the user-facing ``Database`` facade.
"""

from repro.engine.database import Database
from repro.engine.errors import (
    DuplicateKeyError,
    EngineError,
    LockTimeoutError,
    SchemaError,
    SqlError,
    TransactionAborted,
)
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.txn import IsolationLevel, Transaction

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "DuplicateKeyError",
    "EngineError",
    "IsolationLevel",
    "LockTimeoutError",
    "Schema",
    "SchemaError",
    "SqlError",
    "Transaction",
    "TransactionAborted",
]
