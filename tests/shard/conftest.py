import pytest

from repro.engine.wal import WriteAheadLog


@pytest.fixture
def flushed(monkeypatch):
    """``{wal: last_lsn at its latest fsync point}`` for every log: what a
    crash keeps of it, the program's own ``flushed_lsn`` aside."""
    marks = {}
    count_fsync = WriteAheadLog._count_fsync

    def count_and_mark(wal):
        marks[wal] = wal.last_lsn
        count_fsync(wal)

    monkeypatch.setattr(WriteAheadLog, "_count_fsync", count_and_mark)
    return marks
