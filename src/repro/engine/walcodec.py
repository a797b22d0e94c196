"""Binary WAL record codec: canonical CRC payloads and a versioned
wire format.

Two encodings live here, with deliberately different goals:

* :func:`payload_crc` -- the **canonical** encoding the CRC32 is
  computed over.  Canonical means *value-identity*, not
  type-identity: a record rebuilt from an archive or a replication
  frame may come back with a list where a tuple was written, or a
  float ``1.0`` where an int ``1`` was logged, and it must still
  checksum identically (the old ``repr()`` payload did not -- see the
  DR scrubber's false "repairs").  Folding rules:

  - integral floats fold to ints (``1.0`` == ``1``; ``-0.0`` == ``0``),
  - lists and tuples share one sequence tag,
  - everything else is type-tagged so ``"1"`` never collides with ``1``.

* :func:`encode_record` / :func:`decode_record` -- the **wire**
  format, which is full-fidelity (tuple stays tuple, int stays int)
  and versioned: version 2 is the struct-packed binary format this
  module owns.

Wire format v2::

    offset  size  field
    0       1     version byte (0x02)
    1       1     kind-code byte (index into KIND_CODES)
    2       8     lsn        (>Q)
    10      8     txn_id     (>Q)
    18      8     prev_lsn   (>Q)
    26      4     crc        (>I, the CRC stored with the record)
    30      ...   table, key, before, after (tagged values, see _encode_value)

Tagged value encoding (type-preserving): ``N`` None, ``T``/``f``
True/False, ``i<decimal>;`` int, ``F``+8B big-endian double,
``s<len>:<utf8>`` str, ``y<len>:<raw>`` bytes, ``L<count>:`` list,
``U<count>:`` tuple.
"""

from __future__ import annotations

import marshal
import struct
import zlib
from typing import Any, List, Tuple

__all__ = [
    "CODEC_VERSION",
    "payload_crc",
    "canonical_payload",
    "encode_record",
    "decode_record",
    "records_equivalent",
]

CODEC_VERSION = 2

_pack_double = struct.Struct(">d").pack
_unpack_double = struct.Struct(">d").unpack_from
_HEADER = struct.Struct(">QQQI")  # lsn, txn_id, prev_lsn, crc

#: Stable kind-code table for the v2 header byte.  Append-only: codes
#: are part of the wire format and must never be reassigned.
KIND_CODES: Tuple[str, ...] = (
    "begin", "commit", "abort", "insert", "update",
    "delete", "checkpoint", "prepare", "decision",
)
_KIND_TO_CODE = {name: i for i, name in enumerate(KIND_CODES)}


# -- canonical encoding (CRC payload) -----------------------------------------
#
# The canonical bytes are the ``marshal`` (format version 2)
# serialization of the record's field tuple after *value folding*:
# integral floats collapse to ints (``1.0`` == ``1``, ``-0.0`` == ``0``)
# and lists collapse to tuples, so a record rebuilt from an archive or
# a wire frame that lost those type distinctions still checksums
# identically.  Everything else stays type-distinct: marshal encodes
# ``True``/``1``, ``"1"``/``1`` and ``b"x"``/``"x"`` differently.
#
# Marshal format 2 is chosen deliberately: unlike formats 3+, it emits
# no identity-based back-references, so two value-equal structures
# produce identical bytes regardless of object sharing or string
# interning -- the property a canonical form needs.  Serialization runs
# in C, which is what makes the per-record CRC affordable on the WAL
# append hot path.

_marshal_dumps = marshal.dumps


def _fold(value: Any, _type=type) -> Any:
    """Canonical value fold: integral floats to ints, lists to tuples.

    Flat rows that need no folding are returned as-is (one scan, no
    rebuild); rows that do fold rebuild through a list comprehension
    with the scalar cases inlined -- a generator expression pays a
    frame switch per cell, and foldable rows are common (any row
    carrying a whole-valued DECIMAL or TIMESTAMP cell).
    """
    t = _type(value)
    if t is tuple:
        for cell in value:
            ct = cell.__class__
            if ct is float:
                if cell.is_integer():
                    break
            elif ct is tuple or ct is list:
                break
        else:
            return value
        return tuple([
            (int(cell) if cell.is_integer() else cell)
            if cell.__class__ is float
            else (_fold(cell)
                  if cell.__class__ is tuple or cell.__class__ is list
                  else cell)
            for cell in value
        ])
    if t is float and value.is_integer():
        return int(value)
    if t is list:
        return tuple([_fold(cell) for cell in value])
    return value


#: Types the fold can rewrite; anything else (int, str, bytes, None)
#: is its own canonical form, so callers skip the ``_fold`` frame.
_FOLDABLE = (float, list, tuple)


def canonical_payload(
    lsn: int,
    txn_id: int,
    kind_value: str,
    table: Any,
    key: Any,
    before: Any,
    after: Any,
    prev_lsn: int,
) -> bytes:
    """The canonical byte string the record CRC is computed over."""
    return _marshal_dumps(
        (lsn, txn_id, kind_value, table,
         _fold(key) if key.__class__ in _FOLDABLE else key,
         _fold(before) if before is not None else None,
         _fold(after) if after is not None else None,
         prev_lsn),
        2,
    )


def payload_crc(
    lsn: int,
    txn_id: int,
    kind_value: str,
    table: Any,
    key: Any,
    before: Any,
    after: Any,
    prev_lsn: int,
) -> int:
    """CRC32 over the canonical binary payload (the v2 checksum)."""
    return zlib.crc32(_marshal_dumps(
        (lsn, txn_id, kind_value, table,
         _fold(key) if key.__class__ in _FOLDABLE else key,
         _fold(before) if before is not None else None,
         _fold(after) if after is not None else None,
         prev_lsn),
        2,
    ))


# -- wire format v2 (type-preserving) -----------------------------------------

def _encode_value(out: bytearray, value: Any, _type=type) -> None:
    t = _type(value)
    if t is int:
        out += b"i%d;" % value
    elif t is str:
        raw = value.encode("utf-8")
        out += b"s%d:" % len(raw)
        out += raw
    elif t is float:
        out += b"F"
        out += _pack_double(value)
    elif value is None:
        out += b"N"
    elif t is bool:
        out += b"T" if value else b"f"
    elif t is tuple:
        out += b"U%d:" % len(value)
        for item in value:
            _encode_value(out, item)
    elif t is list:
        out += b"L%d:" % len(value)
        for item in value:
            _encode_value(out, item)
    elif t is bytes:
        out += b"y%d:" % len(value)
        out += value
    else:  # pragma: no cover - engine rows never carry other types
        raise TypeError(f"cannot encode {t.__name__}")


def _decode_value(data: bytes, pos: int) -> Tuple[Any, int]:
    tag = data[pos:pos + 1]
    pos += 1
    if tag == b"i":
        end = data.index(b";", pos)
        return int(data[pos:end]), end + 1
    if tag == b"s":
        end = data.index(b":", pos)
        length = int(data[pos:end])
        start = end + 1
        return data[start:start + length].decode("utf-8"), start + length
    if tag == b"F":
        return _unpack_double(data, pos)[0], pos + 8
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"f":
        return False, pos
    if tag in (b"U", b"L"):
        end = data.index(b":", pos)
        count = int(data[pos:end])
        pos = end + 1
        items: List[Any] = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == b"U" else items), pos
    if tag == b"y":
        end = data.index(b":", pos)
        length = int(data[pos:end])
        start = end + 1
        return data[start:start + length], start + length
    raise ValueError(f"bad value tag {tag!r} at offset {pos - 1}")


def encode_record(record: Any) -> bytes:
    """Encode one :class:`~repro.engine.wal.LogRecord` in wire format v2."""
    kind_value = record.kind.value
    try:
        code = _KIND_TO_CODE[kind_value]
    except KeyError:  # pragma: no cover - new kinds must extend KIND_CODES
        raise ValueError(f"no kind code for {kind_value!r}") from None
    out = bytearray((CODEC_VERSION, code))
    out += _HEADER.pack(record.lsn, record.txn_id, record.prev_lsn, record.crc)
    _encode_value(out, record.table)
    _encode_value(out, record.key)
    _encode_value(out, record.before)
    _encode_value(out, record.after)
    return bytes(out)


def decode_record(data: bytes) -> Any:
    """Decode a wire format v2 frame back into a ``LogRecord``."""
    from repro.engine.wal import LogKind, LogRecord  # local: avoid cycle

    if not data:
        raise ValueError("empty record frame")
    version = data[0]
    if version == CODEC_VERSION:
        code = data[1]
        try:
            kind = LogKind(KIND_CODES[code])
        except IndexError:
            raise ValueError(f"bad kind code {code}") from None
        lsn, txn_id, prev_lsn, crc = _HEADER.unpack_from(data, 2)
        pos = 2 + _HEADER.size
        table, pos = _decode_value(data, pos)
        key, pos = _decode_value(data, pos)
        before, pos = _decode_value(data, pos)
        after, pos = _decode_value(data, pos)
        return LogRecord(
            lsn=lsn, txn_id=txn_id, kind=kind, table=table, key=key,
            before=before, after=after, prev_lsn=prev_lsn, crc=crc,
        )
    raise ValueError(f"unknown record codec version {version}")


def records_equivalent(a: Any, b: Any) -> bool:
    """Value-identity comparison of two records.

    Field-wise ``==`` is too strict once records round-trip through
    archives or wire frames (tuple vs list, ``1`` vs ``1.0``); two
    records are equivalent when their canonical payloads and stored
    CRCs match.
    """
    if a.crc != b.crc:
        return False
    return canonical_payload(
        a.lsn, a.txn_id, a.kind.value, a.table, a.key, a.before, a.after, a.prev_lsn
    ) == canonical_payload(
        b.lsn, b.txn_id, b.kind.value, b.table, b.key, b.before, b.after, b.prev_lsn
    )
