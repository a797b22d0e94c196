"""Binary WAL codec: wire round-trips, canonical CRC folding, and
recovery equivalence of a wire-round-tripped log."""

from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import (
    LogKind,
    LogRecord,
    WriteAheadLog,
    record_crc,
)
from repro.engine.walcodec import (
    CODEC_VERSION,
    canonical_payload,
    decode_record,
    encode_record,
    payload_crc,
    records_equivalent,
)

# Cell values the engine can actually log: scalars plus one level of
# nesting (composite index keys).  NaN is excluded (NaN != NaN breaks
# any round-trip assertion); large ints exceed 64 bits on purpose.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.binary(max_size=8),
)
cells = st.one_of(scalars, st.tuples(scalars, scalars), st.lists(scalars, max_size=3))
images = st.one_of(st.none(), st.tuples(cells, cells, cells))


def make_record(kind, table, key, before, after, lsn=3, txn_id=7, prev_lsn=1):
    return LogRecord(
        lsn, txn_id, kind, table, key, before, after, prev_lsn,
        record_crc(lsn, txn_id, kind, table, key, before, after, prev_lsn),
    )


def strict_eq(a, b) -> bool:
    """Equality that also demands matching types, recursively (so a
    decoded ``1`` is not accepted for ``1.0``, nor a list for a tuple)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(strict_eq(x, y) for x, y in zip(a, b))
    return a == b


class TestWireRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(key=cells, before=images, after=images,
           kind=st.sampled_from(list(LogKind)))
    def test_v2_round_trip_preserves_types(self, key, before, after, kind):
        record = make_record(kind, "T", key, before, after)
        frame = encode_record(record)
        assert frame[0] == CODEC_VERSION
        decoded = decode_record(frame)
        assert decoded.lsn == record.lsn
        assert decoded.txn_id == record.txn_id
        assert decoded.kind is record.kind
        assert decoded.prev_lsn == record.prev_lsn
        assert decoded.crc == record.crc
        assert strict_eq(decoded.key, record.key)
        assert strict_eq(decoded.before, record.before)
        assert strict_eq(decoded.after, record.after)
        assert decoded.is_intact

    def test_unknown_version_rejected(self):
        record = make_record(LogKind.COMMIT, None, None, None, None)
        frame = bytes((99,)) + encode_record(record)[1:]
        try:
            decode_record(frame)
        except ValueError as exc:
            assert "99" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("bad version must not decode")


class TestCanonicalCrc:
    def test_integral_floats_fold_to_ints(self):
        assert payload_crc(1, 2, "update", "T", 1, (1, 2.0), None, 0) == \
            payload_crc(1, 2, "update", "T", 1.0, (1.0, 2), None, 0)

    def test_negative_zero_folds_to_zero(self):
        assert payload_crc(1, 2, "update", "T", -0.0, (0.0,), None, 0) == \
            payload_crc(1, 2, "update", "T", 0, (0,), None, 0)

    def test_lists_fold_to_tuples(self):
        assert payload_crc(1, 2, "update", "T", [1, "a"], [(1,), [2]], None, 0) == \
            payload_crc(1, 2, "update", "T", (1, "a"), ((1,), (2,)), None, 0)

    def test_type_distinctions_survive_folding(self):
        base = payload_crc(1, 2, "update", "T", 1, None, None, 0)
        assert payload_crc(1, 2, "update", "T", "1", None, None, 0) != base
        assert payload_crc(1, 2, "update", "T", True, None, None, 0) != base
        assert payload_crc(1, 2, "update", "T", b"1", None, None, 0) != base
        # non-integral floats stay floats
        assert payload_crc(1, 2, "update", "T", 1.5, None, None, 0) != base

    def test_payload_is_identity_independent(self):
        # Equal-but-distinct objects (no interning, no sharing) must
        # produce identical canonical bytes -- marshal format 2 emits no
        # identity back-references, which this pins.
        s1, s2 = "xy" * 3, "".join(["x", "y"]) * 3
        assert s1 is not s2
        row1, row2 = (s1, s1, 10 ** 40), (s2, "xy" * 3, 10 ** 40 + 1 - 1)
        assert canonical_payload(1, 2, "update", "T", s1, row1, None, 0) == \
            canonical_payload(1, 2, "update", "T", s2, row2, None, 0)

    @settings(max_examples=80, deadline=None)
    @given(row=st.tuples(st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
                         st.text(max_size=8),
                         st.integers(min_value=-(2 ** 40), max_value=2 ** 40)))
    def test_rebuilt_record_checksums_identically(self, row):
        """The satellite regression: an image that came back from an
        archive or wire frame as a list of floats must match the CRC
        stamped over the original tuple of ints."""
        rebuilt = [float(c) if isinstance(c, int) else c for c in row]
        assert payload_crc(1, 2, "update", "T", row[0], row, None, 0) == \
            payload_crc(1, 2, "update", "T", float(row[0]), rebuilt, None, 0)

    def test_wal_stamped_crc_matches_codec(self):
        """The append hot path inlines payload_crc; this pins the two
        implementations to byte-identical behaviour."""
        wal = WriteAheadLog()
        records = [
            wal.append(1, LogKind.BEGIN),
            wal.append(1, LogKind.UPDATE, table="T", key=2.0,
                       before=(2.0, "a", 1.5), after=(2.0, "b", -0.0)),
            wal.append(1, LogKind.INSERT, table="T", key=(1, "k"),
                       after=(1, "k", None)),
            wal.append(1, LogKind.COMMIT),
        ]
        for record in records:
            assert record.crc == record.expected_crc()
            assert record.is_intact


def _fresh_db(name):
    db = Database(name, buffer_size_bytes=1 << 22)
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def _run_workload(db):
    for k in range(1, 6):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [100, 1])
    loser = db.begin()
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [999, 2], txn=loser)
    # loser stays open across the crash


class TestRecoveryEquivalence:
    def test_wire_round_tripped_log_recovers_identically(self):
        """crash()+recover() over records that went through the v2
        encoder and back is indistinguishable from the original log."""
        db, shadow = _fresh_db("codec-wire"), _fresh_db("codec-wire2")
        _run_workload(db)
        _run_workload(shadow)
        shadow.wal._records[:] = [
            decode_record(encode_record(r)) for r in shadow.wal._records
        ]
        for original, round_tripped in zip(db.wal._records, shadow.wal._records):
            assert records_equivalent(original, round_tripped)
        db.crash()
        shadow.crash()
        db.recover()
        shadow.recover()
        assert dict(db.query("SELECT K, V FROM kv").rows) == \
            dict(shadow.query("SELECT K, V FROM kv").rows)
