"""Robustness tests for the gateway wire protocol codec."""

import struct
import zlib

import pytest

from repro.gateway.protocol import (
    END,
    ERROR,
    FRAME_TYPES,
    HEADER,
    HELLO,
    PING,
    PROTOCOL_VERSION,
    STATE,
    SUBMIT,
    FrameDecoder,
    FrameTooLarge,
    ProtocolError,
    VersionMismatch,
    encode_frame,
)


def _raw_frame(ftype: int, body: bytes, version: int) -> bytes:
    """Hand-assemble a frame, bypassing encode_frame's version check."""
    head = struct.pack("<BBII", version, ftype, len(body), zlib.crc32(body))
    return head + struct.pack("<I", zlib.crc32(head)) + body


def _corrupt(frame: bytes, index: int) -> bytes:
    return frame[:index] + bytes([frame[index] ^ 0xFF]) + frame[index + 1:]


class TestEncode:
    def test_roundtrip_every_frame_type(self):
        decoder = FrameDecoder()
        for i, ftype in enumerate(sorted(FRAME_TYPES)):
            payload = {"type": ftype, "n": i, "nested": {"k": [1, 2, 3]}}
            frames = decoder.feed(encode_frame(ftype, payload))
            assert frames == [(ftype, payload)]

    def test_header_layout(self):
        frame = encode_frame(PING, {})
        version, ftype, length, pay_crc, head_crc = HEADER.unpack_from(frame)
        assert version == PROTOCOL_VERSION
        assert ftype == PING
        assert length == len(frame) - HEADER.size
        body = frame[HEADER.size:]
        assert pay_crc == zlib.crc32(body)
        assert head_crc == zlib.crc32(frame[: HEADER.size - 4])

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_frame(99, {})

    def test_oversized_payload_rejected(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(SUBMIT, {"blob": "x" * (1 << 20)})


class TestDecoder:
    def test_truncated_frame_yields_nothing_until_complete(self):
        frame = encode_frame(STATE, {"player": "p1", "status": "admitted"})
        decoder = FrameDecoder()
        for cut in (1, HEADER.size - 1, HEADER.size, len(frame) - 1):
            assert decoder.feed(frame[:cut]) == []
            assert decoder.pending_bytes == cut
            decoder = FrameDecoder()
        # byte-at-a-time delivery still parses exactly one frame
        frames = []
        for i in range(len(frame)):
            frames.extend(decoder.feed(frame[i:i + 1]))
        assert frames == [(STATE, {"player": "p1", "status": "admitted"})]

    def test_two_frames_in_one_read(self):
        data = encode_frame(HELLO, {"client": "a"}) + encode_frame(PING, {})
        assert FrameDecoder().feed(data) == [
            (HELLO, {"client": "a"}), (PING, {}),
        ]

    def test_garbage_bytes_rejected(self):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(b"GET / HTTP/1.1\r\n\r\n")

    def test_header_crc_mismatch(self):
        frame = _corrupt(encode_frame(END, {"player": "p"}), index=2)
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_payload_crc_mismatch(self):
        frame = _corrupt(encode_frame(END, {"player": "p"}), index=HEADER.size)
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_version_mismatch(self):
        # one wire version: the older v1/v2 are refused like a newer one
        for version in (1, 2, PROTOCOL_VERSION + 1):
            with pytest.raises(VersionMismatch):
                FrameDecoder().feed(_raw_frame(HELLO, b"{}", version=version))
        for version in (1, 2):
            with pytest.raises(VersionMismatch):
                encode_frame(HELLO, {}, version=version)

    def test_oversized_announced_length_rejected_before_body_arrives(self):
        body = b"{}"
        head = struct.pack(
            "<BBII", PROTOCOL_VERSION, SUBMIT, 2 << 20, zlib.crc32(body)
        )
        frame = head + struct.pack("<I", zlib.crc32(head)) + body
        with pytest.raises(FrameTooLarge):
            FrameDecoder().feed(frame)

    def test_decoder_honours_negotiated_bound(self):
        frame = encode_frame(SUBMIT, {"blob": "x" * 4096})
        with pytest.raises(FrameTooLarge):
            FrameDecoder(max_frame_bytes=1024).feed(frame)

    def test_non_json_payload_rejected(self):
        body = b"\xff\xfe not json"
        head = struct.pack(
            "<BBII", PROTOCOL_VERSION, ERROR, len(body), zlib.crc32(body)
        )
        frame = head + struct.pack("<I", zlib.crc32(head)) + body
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_non_object_payload_rejected(self):
        body = b"[1,2,3]"
        head = struct.pack(
            "<BBII", PROTOCOL_VERSION, ERROR, len(body), zlib.crc32(body)
        )
        frame = head + struct.pack("<I", zlib.crc32(head)) + body
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_unknown_frame_type_rejected(self):
        body = b"{}"
        head = struct.pack("<BBII", PROTOCOL_VERSION, 42, len(body),
                           zlib.crc32(body))
        frame = head + struct.pack("<I", zlib.crc32(head)) + body
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    def test_corruption_poisons_the_decoder(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(b"\x00" * HEADER.size)
        # no resync: even a pristine frame is refused afterwards
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(PING, {}))


class TestVersioning:
    """One wire version: every other version byte is refused."""

    def test_decoder_rejects_below_window(self):
        with pytest.raises(VersionMismatch):
            FrameDecoder().feed(_raw_frame(PING, b"{}", version=0))

    def test_encode_rejects_unsupported_version(self):
        with pytest.raises(VersionMismatch):
            encode_frame(PING, {}, version=0)
        with pytest.raises(VersionMismatch):
            encode_frame(PING, {}, version=PROTOCOL_VERSION + 1)
