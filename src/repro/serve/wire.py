"""The wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON, byte for byte ``json.dumps(payload,
separators=(",", ":"))``.  Requests are objects with an ``op``
key; responses carry ``ok: true`` plus a result block, or ``ok: false``
plus the error taxonomy object of :mod:`repro.serve.errors`.

The request vocabulary:

========  ==================================================
op        payload
========  ==================================================
hello     ``client`` (name), ``priority`` (0 = highest)
execute   ``sql`` and/or ``sid``, ``params``; ``begin``?
query     ``sql`` and/or ``sid``, ``params`` (read-only);
          ``begin``?
begin     ``isolation`` (level name or null)
commit    ``begin``?
rollback  --
abandon   -- (drop txn affinity without rollback; post-crash)
batch     ``stmts``: ``[[sql, params], ...]`` -- one whole
          transaction, executed atomically server-side
ping      --
goodbye   --
========  ==================================================

**A transaction costs its statements.**  ``begin`` need not be a round
trip of its own: an ``execute``, ``query`` or ``commit`` frame may carry
``"begin": <isolation name or null>``, and the server opens the
session's transaction (exactly as the ``begin`` op does) and then runs
the frame's op, as one admitted request.  Every response of a frame
whose begin ran carries ``gtid`` -- error responses included -- and a
frame that never ran (shed, expired, an unknown ``sid``) carries none,
so the client knows whether the server holds a transaction.  So
``begin`` + k statements + ``commit`` is k + 1 requests, and ``begin`` +
``commit`` one.  The field on any other op is a ``protocol:`` error.
Both clients of :mod:`repro.serve.client` send it; the ``begin`` op
stays for clients that write raw frames.

**Statement ids.**  A statement's text need cross the wire once per
connection: the first ``execute``/``query`` frame that carries a text
may also carry ``sid``, an integer the *client* picks, and the server
remembers ``sid -> sql`` for the life of the connection; later frames
send ``sid`` and ``params`` alone.  There is no registration round
trip, a connection holds at most :data:`MAX_STATEMENT_IDS` ids, the
table is registered when the frame is taken off the wire (so a
statement shed by admission still registered its id), an unknown id or
one registration too many is a non-retryable protocol error that
leaves the session usable, and a frame with ``sql`` and no ``sid``
works as it always did.

**Ordering.**  Responses come back in request order.  A connection may
pipeline any number of requests, but the server keeps at most one
statement of a connection in its admission queue at a time; the rest
wait, decoded, in the connection's inbox.

**Back-pressure.**  A client that stops reading its responses fills
the server's write buffer; the server then stops reading that
connection (and serving its inbox) until the buffer drains, as it does
when the inbox itself grows long.  Other connections are unaffected.

Framing errors are *protocol* errors, not SQL errors: a malformed or
oversized length prefix poisons the byte stream (there is no way to
find the next frame boundary).  Frames completed before the bad bytes
are still good: :meth:`FrameDecoder.feed` delivers them first and
raises :class:`FrameError` after, and the server answers them in
order, sends one final protocol-error frame, then hangs up.  Partial
reads are normal -- :class:`FrameDecoder` buffers fragments until a
frame completes, which is what makes the protocol safe over real
sockets that deliver bytes in arbitrary chunks.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional

__all__ = [
    "FrameDecoder",
    "FrameError",
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_STATEMENT_IDS",
    "decode_body",
    "encode_frame",
]

#: bytes of the length prefix
HEADER_BYTES = 4

#: default ceiling on one frame's payload; a statement bigger than this
#: is a client bug (or an attack), not a workload
MAX_FRAME_BYTES = 1 << 20

#: statement ids one connection may register; a client past it sends
#: the text every time
MAX_STATEMENT_IDS = 1024

_HEADER = struct.Struct(">I")

# the stdlib codec (json.dumps / json.loads build or re-check one per
# call) and the C parts under it, built once: ``encode`` makes a C
# encoder per call, ``decode`` wraps the C scanner in two regex matches.
# The C encoder keeps no circular-reference markers (a cycle trips the
# recursion guard instead): any failure re-runs the stdlib for its error.
_encoder = json.JSONEncoder(separators=(",", ":"))
_decoder = json.JSONDecoder()
_scan_once = _decoder.scan_once
try:
    _c_encode = json.encoder.c_make_encoder(
        None, _encoder.default, json.encoder.encode_basestring_ascii,
        _encoder.indent, _encoder.key_separator, _encoder.item_separator,
        _encoder.sort_keys, _encoder.skipkeys, _encoder.allow_nan,
    )
except TypeError:  # no _json: c_make_encoder is None, and encode_frame falls back
    _c_encode = None


class FrameError(Exception):
    """The byte stream violates the framing protocol (unrecoverable)."""


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame for ``payload``; raises :class:`FrameError` when
    the encoded payload exceeds :data:`MAX_FRAME_BYTES`."""
    try:
        text = "".join(_c_encode(payload, 0))
    except Exception:  # noqa: BLE001 -- the stdlib encoder names the fault
        text = _encoder.encode(payload)
    body = text.encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload is {len(body)} bytes "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body)) + body


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks (including single bytes) with :meth:`feed`,
    which returns the frames each chunk completed.  The decoder is
    strict about the prefix: a zero or oversized length poisons the
    stream -- once the prefix is wrong there is no recoverable frame
    boundary -- and so does a body that is not a JSON object.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES):
        if max_frame < 1:
            raise ValueError("max_frame must be >= 1")
        self.max_frame = max_frame
        #: the tail of the stream that does not yet make a frame
        self._buffer = bytearray()
        #: why the stream is poisoned (None while it is not); set even
        #: when :meth:`feed` still had good frames to return
        self.error: Optional[FrameError] = None

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every frame it completed, in order.

        Frames that precede a poisoned prefix in the same chunk are
        returned, with :attr:`error` set; a call with nothing left to
        return raises it, as does every call after.
        """
        if self.error is not None:
            raise self.error
        buffer = self._buffer
        if buffer:
            buffer.extend(data)
            data = buffer
        # a chunk that starts on a frame boundary (the usual case: one
        # request, one response) is parsed where it lies
        frames: List[Dict[str, Any]] = []
        pos, end = 0, len(data)
        try:
            while end - pos >= HEADER_BYTES:
                (length,) = _HEADER.unpack_from(data, pos)
                if length == 0:
                    raise FrameError("zero-length frame")
                if length > self.max_frame:
                    raise FrameError(
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame}-byte limit"
                    )
                stop = pos + HEADER_BYTES + length
                if stop > end:
                    break
                frames.append(decode_body(data[pos + HEADER_BYTES:stop]))
                pos = stop
        except FrameError as error:
            self.error = error
            if not frames:
                raise
            return frames
        if data is buffer:
            del buffer[:pos]
        elif pos < end:
            buffer.extend(data[pos:])
        return frames

    def end_of_stream(self) -> None:
        """The peer closed: raise :class:`FrameError` unless the stream
        ended on a frame boundary (or was poisoned before it ended)."""
        if self.error is None and self._buffer:
            self.error = FrameError(
                f"stream truncated inside a frame "
                f"({len(self._buffer)} bytes pending)"
            )
        if self.error is not None:
            raise self.error


def decode_body(body: bytes) -> Dict[str, Any]:
    """Decode one frame body; malformed JSON is a protocol error, as is
    JSON the stdlib refuses to build (an integer past its digit limit,
    nesting past the recursion limit)."""
    try:
        text = body.decode("utf-8")
        try:
            payload, end = _scan_once(text, 0)
        except (StopIteration, ValueError, RecursionError):  # the stdlib names it
            end = -1
        if end != len(text):  # whitespace around it, extra data, or invalid
            payload = _decoder.decode(text)
    except (ValueError, RecursionError) as error:  # UnicodeDecodeError, JSONDecodeError
        raise FrameError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame payload must be an object, got {type(payload).__name__}"
        )
    return payload
