"""Framing: strict parsing, clean EOF handling, transcript round trips."""

import io

import pytest

from edcred.errors import WireError
from edcred.wire import (
    ISSUER_TO_USER,
    MSG_CHAL,
    MSG_ISS1,
    MSG_PRESENT,
    SESSION_ID_LEN,
    USER_TO_ISSUER,
    Transcript,
    WireMessage,
    _MAX_BODY,
    decode_message,
    encode_message,
    read_message,
    write_message,
)

SID = bytes(range(16))


def test_encode_decode_roundtrip():
    for t, body in ((MSG_ISS1, b"payload"), (MSG_CHAL, b""), (MSG_PRESENT, b"x" * 999)):
        msg = WireMessage(t, SID, body)
        again = decode_message(encode_message(msg))
        assert again == msg


def test_header_layout():
    data = encode_message(WireMessage(MSG_ISS1, SID, b"AB"))
    assert data[0] == 1  # version
    assert data[1] == MSG_ISS1
    assert data[2:18] == SID
    assert int.from_bytes(data[18:22], "big") == 2
    assert data[22:] == b"AB"


def test_decode_rejections():
    good = encode_message(WireMessage(MSG_ISS1, SID, b"AB"))
    cases = [
        b"",  # empty
        good[:10],  # truncated header
        good[:-1],  # truncated body
        good + b"!",  # trailing garbage
        b"\x02" + good[1:],  # unknown version
        good[:1] + b"\x7f" + good[2:],  # unknown type
    ]
    for data in cases:
        with pytest.raises(WireError):
            decode_message(data)


def test_message_constructor_rejects_bad_fields():
    with pytest.raises(WireError):
        WireMessage(0x7F, SID, b"")
    with pytest.raises(WireError):
        WireMessage(MSG_ISS1, b"short", b"")
    with pytest.raises(WireError):
        WireMessage(MSG_ISS1, SID, b"x" * (1 << 21))
    assert SESSION_ID_LEN == 16


def test_stream_read_write():
    buf = io.BytesIO()
    m1 = WireMessage(MSG_ISS1, SID, b"one")
    m2 = WireMessage(MSG_CHAL, SID, b"two")
    write_message(buf, m1)
    write_message(buf, m2)
    buf.seek(0)
    assert read_message(buf) == m1
    assert read_message(buf) == m2
    assert read_message(buf) is None  # clean EOF


def test_stream_mid_frame_eof_is_error():
    buf = io.BytesIO(encode_message(WireMessage(MSG_ISS1, SID, b"body"))[:-2])
    with pytest.raises(WireError):
        read_message(buf)


def test_stream_cut_header_and_oversized_body_refused():
    data = encode_message(WireMessage(MSG_ISS1, SID, b"body"))
    with pytest.raises(WireError, match="mid-header"):
        read_message(io.BytesIO(data[:10]))
    header = data[:18] + (_MAX_BODY + 1).to_bytes(4, "big")
    stream = io.BytesIO(header + b"x" * 64)
    with pytest.raises(WireError, match="too large"):
        read_message(stream)
    assert stream.tell() == len(header)  # the declared body is never read


def test_transcript_roundtrip():
    t = Transcript()
    t.record(ISSUER_TO_USER, WireMessage(MSG_ISS1, SID, b"hello"))
    t.record(USER_TO_ISSUER, WireMessage(MSG_CHAL, SID, b"reply"))
    assert len(t) == 2
    assert [m.body for m in t.messages(ISSUER_TO_USER)] == [b"hello"]
    again = Transcript.from_bytes(t.to_bytes())
    assert [(e.direction, e.message) for e in again] == [(e.direction, e.message) for e in t]


def test_transcripts_do_not_share_entries():
    a, b = Transcript(), Transcript()
    a.record(ISSUER_TO_USER, WireMessage(MSG_ISS1, SID, b"hello"))
    assert len(a) == 1 and len(b) == 0 and a.entries is not b.entries


def test_transcript_rejects_bad_direction():
    t = Transcript()
    with pytest.raises(ValueError):
        t.record(2, WireMessage(MSG_ISS1, SID, b""))


def test_transcript_bytes_strict():
    t = Transcript()
    t.record(0, WireMessage(MSG_ISS1, SID, b"a"))
    data = t.to_bytes()
    with pytest.raises(WireError):
        Transcript.from_bytes(data[:-1])
    with pytest.raises(WireError):
        Transcript.from_bytes(data + b"\x00")
