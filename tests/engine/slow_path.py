"""The slow-path twin: a database with every fast path forced off.

Two skips keep the engine's uncontended path cheap, and each rests on an
argument rather than on running the slow path beside it:

* a lock dropped before any other transaction runs (every lock of an
  autocommit statement, a READ COMMITTED read's S) is not taken where
  ``LockManager.elide`` finds no lock-table entry for its key;
* a write builds its version-chain entries only while a snapshot could
  read them, or its key already has a chain (``Database._keeps_history``);
  otherwise they wait on ``txn.deferred`` until a snapshot begins.

:func:`force_slow_paths` turns both off on one database by patching that
instance, not through a product knob: the probe answers False, and
``_logged`` sees one more live snapshot than there is.  A test runs the
same history on a plain database and on its twin; the two must agree on
results, error classes, nominal WAL bytes and ``content_hash()``.
"""

from repro.engine.errors import EngineError


def force_slow_paths(db):
    """Make ``db`` take every lock and build every version chain."""
    db.locks.elide = lambda key: False
    logged = db._logged

    def logged_as_if_a_snapshot_were_live(*args):
        db.txns.live_snapshots += 1
        try:
            logged(*args)
        finally:
            db.txns.live_snapshots -= 1

    db._logged = logged_as_if_a_snapshot_were_live
    return db


def outcome(run, *args):
    """``run(*args)``'s result, or the class of the engine error it raised."""
    try:
        return run(*args)
    except EngineError as error:
        return type(error)


def footprint(db):
    """What twins that ran one history must end with alike: the nominal
    bytes of the WAL and the hash of the committed rows."""
    return db.wal.bytes_between(0, db.wal.last_lsn), db.content_hash()
