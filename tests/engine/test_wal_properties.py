"""Property tests on WAL invariants under appends and truncations."""

from hypothesis import given, settings, strategies as st

from repro.engine.wal import DATA_KINDS, LogKind, WriteAheadLog

operation = st.one_of(
    st.tuples(st.just("append"), st.integers(min_value=1, max_value=5),
              st.sampled_from(list(LogKind))),
    st.tuples(st.just("truncate"), st.integers(min_value=1, max_value=80),
              st.none()),
)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(operation, max_size=60))
def test_property_wal_bookkeeping(ops):
    wal = WriteAheadLog()
    shadow = {}  # lsn -> (txn_id, kind)
    ever_logged = [0]
    for op, arg, kind in ops:
        if op == "append":
            ever_logged.append(arg)
            record = wal.append(arg, kind, table="T" if kind in DATA_KINDS else None,
                                key=1, after=(1,) if kind is LogKind.INSERT else None,
                                before=(0,) if kind in (LogKind.UPDATE, LogKind.DELETE) else None)
            shadow[record.lsn] = (arg, kind)
            # LSNs strictly increase
            assert record.lsn == wal.last_lsn
        else:
            dropped = wal.truncate(arg)
            for lsn in list(shadow):
                if lsn < min(arg, wal.last_lsn + 1):
                    shadow.pop(lsn)
            assert dropped >= 0

    # retained records match the shadow exactly, in LSN order
    retained = list(wal.records_from(wal.first_retained_lsn))
    assert [r.lsn for r in retained] == sorted(shadow)
    for record in retained:
        txn_id, kind = shadow[record.lsn]
        assert record.txn_id == txn_id
        assert record.kind == kind
        assert wal.record_at(record.lsn) is record

    # max_txn_id is a high-water mark over everything ever appended:
    # truncation takes records out of the log, not ids out of circulation
    assert wal.max_txn_id() == max(ever_logged)


@settings(max_examples=40, deadline=None)
@given(
    txns=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=30)
)
def test_property_prev_lsn_chains_partition_by_txn(txns):
    """Following prev_lsn from any record visits only that txn's records."""
    wal = WriteAheadLog()
    per_txn = {}
    for txn_id in txns:
        record = wal.append(txn_id, LogKind.INSERT, table="T", key=1, after=(1,))
        per_txn.setdefault(txn_id, []).append(record.lsn)
    for txn_id, lsns in per_txn.items():
        chain = wal.transaction_chain(txn_id, lsns[-1])
        assert [record.lsn for record in chain] == list(reversed(lsns))
        assert all(record.txn_id == txn_id for record in chain)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=40),
       cut=st.integers(min_value=1, max_value=50))
def test_property_truncate_then_bytes_between(n, cut):
    wal = WriteAheadLog()
    for i in range(n):
        wal.append(1, LogKind.INSERT, table="T", key=i, after=(i,))
    wal.truncate(cut)
    start = wal.first_retained_lsn
    if start <= wal.last_lsn:
        total = wal.bytes_between(start - 1, wal.last_lsn)
        per_record = wal.record_at(start).byte_size()
        assert total == per_record * (wal.last_lsn - start + 1)
