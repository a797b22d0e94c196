"""Wire framing edge cases: partial reads, bad prefixes, truncation."""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import wire
from repro.serve.wire import (
    HEADER_BYTES,
    FrameDecoder,
    FrameError,
    decode_body,
    encode_frame,
)


def _frame(payload):
    return encode_frame(payload)


class TestEncodeFrame:
    def test_roundtrip(self):
        data = _frame({"op": "ping", "n": 1})
        (length,) = struct.unpack(">I", data[:HEADER_BYTES])
        assert length == len(data) - HEADER_BYTES
        assert decode_body(data[HEADER_BYTES:]) == {"op": "ping", "n": 1}

    def test_oversized_payload_raises(self):
        with pytest.raises(FrameError, match="limit"):
            encode_frame({"sql": "x" * (1 << 21)})


class TestFrameDecoder:
    def test_whole_frame(self):
        decoder = FrameDecoder()
        frames = decoder.feed(_frame({"op": "ping"}))
        assert frames == [{"op": "ping"}]
        decoder.end_of_stream()  # nothing left over

    def test_byte_at_a_time(self):
        """Partial reads are normal: single-byte feeds still decode."""
        decoder = FrameDecoder()
        data = _frame({"op": "execute", "sql": "SELECT 1", "params": []})
        frames = []
        for index in range(len(data)):
            got = decoder.feed(data[index:index + 1])
            if index < len(data) - 1:
                assert got == []
            frames.extend(got)
        assert frames == [{"op": "execute", "sql": "SELECT 1", "params": []}]

    def test_many_frames_in_one_chunk(self):
        decoder = FrameDecoder()
        chunk = b"".join(_frame({"i": i}) for i in range(5))
        assert decoder.feed(chunk) == [{"i": i} for i in range(5)]

    def test_chunk_spanning_a_frame_boundary(self):
        decoder = FrameDecoder()
        data = _frame({"a": 1}) + _frame({"b": 2})
        cut = len(_frame({"a": 1})) + 2  # two bytes into frame 2's header
        assert decoder.feed(data[:cut]) == [{"a": 1}]
        assert decoder.feed(data[cut:]) == [{"b": 2}]

    def test_zero_length_prefix_poisons_the_stream(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="zero-length"):
            decoder.feed(b"\x00\x00\x00\x00")

    def test_oversized_prefix_poisons_the_stream(self):
        decoder = FrameDecoder(max_frame=256)
        with pytest.raises(FrameError, match="exceeds"):
            decoder.feed(struct.pack(">I", 257))

    def test_malformed_json_body(self):
        decoder = FrameDecoder()
        body = b"{not json"
        with pytest.raises(FrameError, match="not valid JSON"):
            decoder.feed(struct.pack(">I", len(body)) + body)

    def test_non_object_json_body(self):
        decoder = FrameDecoder()
        body = b"[1,2,3]"
        with pytest.raises(FrameError, match="must be an object"):
            decoder.feed(struct.pack(">I", len(body)) + body)

    def test_max_frame_validation(self):
        with pytest.raises(ValueError):
            FrameDecoder(max_frame=0)

    def test_good_frames_before_a_poisoned_prefix_are_delivered(self):
        """One chunk, two good frames then garbage: the frames come
        out first, the error after them and on every later call."""
        decoder = FrameDecoder()
        chunk = _frame({"i": 0}) + _frame({"i": 1}) + b"\x00\x00\x00\x00"
        assert decoder.feed(chunk) == [{"i": 0}, {"i": 1}]
        assert isinstance(decoder.error, FrameError)
        with pytest.raises(FrameError, match="zero-length"):
            decoder.feed(b"")
        with pytest.raises(FrameError, match="zero-length"):
            decoder.feed(_frame({"i": 2}))

    def test_good_frames_before_a_bad_body_on_the_buffered_path(self):
        decoder = FrameDecoder()
        body = b"{not json"
        chunk = _frame({"i": 0}) + struct.pack(">I", len(body)) + body
        assert decoder.feed(chunk[:2]) == []  # mid-header: buffered path
        assert decoder.feed(chunk[2:]) == [{"i": 0}]
        with pytest.raises(FrameError, match="not valid JSON"):
            decoder.feed(b"")

    def test_clean_eof_at_a_frame_boundary(self):
        decoder = FrameDecoder()
        assert decoder.feed(_frame({"op": "ping"})) == [{"op": "ping"}]
        decoder.end_of_stream()  # nothing pending: no error
        FrameDecoder().end_of_stream()  # nor on a stream that never spoke

    def test_eof_inside_a_header_is_a_truncated_stream(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"\x00\x00") == []
        with pytest.raises(FrameError, match="truncated"):
            decoder.end_of_stream()

    def test_eof_inside_a_body_is_a_truncated_stream(self):
        decoder = FrameDecoder()
        data = _frame({"op": "execute", "sql": "SELECT 1"})
        assert decoder.feed(data[:-2]) == []
        with pytest.raises(FrameError, match="truncated"):
            decoder.end_of_stream()
        assert decoder.error is not None  # and the stream stays dead
        with pytest.raises(FrameError, match="truncated"):
            decoder.feed(data[-2:])


_PAYLOADS = st.lists(
    st.dictionaries(
        st.text(max_size=6),
        st.one_of(
            st.none(), st.booleans(), st.integers(), st.text(max_size=40),
            st.lists(st.integers(), max_size=4),
        ),
        max_size=4,
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(payloads=_PAYLOADS, data=st.data())
def test_property_any_chunking_yields_the_same_frames(payloads, data):
    """However a valid multi-frame stream is cut into chunks -- on frame
    boundaries (the whole-frame path), inside headers or bodies (the
    buffered path), or byte by byte -- the same frames come out."""
    stream = b"".join(encode_frame(payload) for payload in payloads)
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(stream)), max_size=12), label="cuts"
    ))
    decoder = FrameDecoder()
    frames = []
    for start, stop in zip([0, *cuts], [*cuts, len(stream)]):
        frames.extend(decoder.feed(stream[start:stop]))
    assert frames == payloads
    decoder.end_of_stream()


# -- codec parity: the frames and the failures are the stdlib json's ---------

_STDLIB_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_STDLIB_DECODE = json.JSONDecoder().decode

_SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-10**60, max_value=10**60),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(max_size=12),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)
_OBJECTS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=5)


#: JSON texts, object or not, with whitespace around them or junk after
_TEXTS = st.builds(
    lambda pad, value, tail: (pad[0] + _STDLIB_ENCODE(value) + pad[1]).encode() + tail,
    st.tuples(*[st.sampled_from(["", " ", "\n\t ", "\r"])] * 2),
    st.one_of(_OBJECTS, _VALUES),
    st.sampled_from([b"", b"x", b"}", b"]", b"{}", b",1", b"\xff"]),
)
#: arbitrary bytes, those texts, and those texts cut short
_BODIES = st.one_of(
    st.binary(max_size=48), _TEXTS,
    st.tuples(_TEXTS, st.integers(0, 64)).map(lambda cut: cut[0][:cut[1]]),
)


@settings(max_examples=400, deadline=None)
@given(body=_BODIES)
def test_property_decode_body_is_the_stdlib_decode_or_a_frame_error(body):
    try:
        want = _STDLIB_DECODE(body.decode("utf-8"))
    except ValueError as error:  # UnicodeDecodeError, JSONDecodeError
        with pytest.raises(FrameError) as refused:
            decode_body(body)
        assert str(error) in str(refused.value)
        return
    if not isinstance(want, dict):
        with pytest.raises(FrameError, match="must be an object"):
            decode_body(body)
        return
    got = decode_body(body)
    # compared re-encoded: tells nan from nan equal, 1 from 1.0 and True,
    # -0.0 from 0.0, and one key order from another
    assert type(got) is dict and _STDLIB_ENCODE(got) == _STDLIB_ENCODE(want)


@settings(max_examples=400, deadline=None)
@given(payload=_OBJECTS)
def test_property_encode_frame_is_the_stdlib_encoding(payload):
    body = _STDLIB_ENCODE(payload).encode("utf-8")
    assert encode_frame(payload) == struct.pack(">I", len(body)) + body


class TestCodecFailures:
    """The fast paths fail exactly as the stdlib codec does."""

    def test_a_circular_list_is_the_stdlib_value_error(self):
        params = [1]
        params.append(params)
        with pytest.raises(ValueError, match="Circular reference detected"):
            encode_frame({"op": "execute", "params": params})

    @pytest.mark.parametrize("value", [b"x", {1}])
    def test_an_unencodable_value_is_the_stdlib_type_error(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            encode_frame({"params": [value]})

    def test_without_the_c_encoder_the_frames_are_the_same(self, monkeypatch):
        payload = {"rows": [(1, "é", -0.0, math.nan)], "ok": True}
        fast = encode_frame(payload)
        monkeypatch.setattr(wire, "_c_encode", None)
        assert encode_frame(payload) == fast

    def test_whitespace_around_a_body_decodes_as_before(self):
        assert decode_body(b' \n{"op": "ping"}\t ') == {"op": "ping"}
        with pytest.raises(FrameError, match="Extra data"):
            decode_body(b'{"op": "ping"} {}')

    @pytest.mark.parametrize("body", [
        b'{"n":' + b"1" * 5000 + b"}",  # past the int digit limit
        b'{"a":' + b"[" * 100_000 + b"]" * 100_000 + b"}",  # past the recursion limit
    ], ids=["digits", "nesting"])
    def test_json_the_stdlib_will_not_build_is_a_frame_error(self, body):
        with pytest.raises(FrameError, match="not valid JSON"):
            decode_body(body)
