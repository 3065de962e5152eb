"""Wire protocol of the network gateway: length-prefixed binary frames.

The gateway speaks a small, versioned, CRC-checked binary protocol over
TCP.  Every frame is::

    +--------+--------+----------+---------------+--------------+
    | u8 ver | u8 typ | u32 len  | u32 crc(pay)  | u32 crc(hdr) |  header (14 B, LE)
    +--------+--------+----------+---------------+--------------+
    |                payload: `len` bytes of JSON                |
    +------------------------------------------------------------+

``crc(hdr)`` is the CRC32 of the first 10 header bytes, so a reader can
reject a corrupt or misaligned header *before* trusting its length
field; ``crc(pay)`` covers the payload.  Payloads are compact JSON
objects — the same codec family as the WAL records, so scripted ops
travel the wire with :func:`repro.persist.records.op_to_dict`.

Frame types (client → server unless noted):

``HELLO``
    Handshake; must be the first frame on a connection.  Carries the
    client name and an optional ``resume`` list of player ids to
    re-attach (live sessions keep running server-side across client
    disconnects).  The server answers with its own HELLO.
``SUBMIT``
    A full scripted session: player id, pacing ``dt`` and the op list.
    Acknowledged with STATE (admitted) or ERROR (rejected).
``INPUT``
    One extra scripted op appended to a live session, submitted or
    recovered from the WAL after a restart or failover (best effort:
    ops racing the session's completion are dropped and the client
    simply sees END).
``STATE`` (server → client)
    Acknowledgement / session status, echoing the request ``seq``.
``END`` (server → client)
    Pushed when a session finishes: outcome, score, steps and the
    SHA-256 state digest (the bit-identity handle recovery tests use).
``ERROR`` (server → client)
    Request or connection level failure, with a machine ``code``.
``PING``
    Liveness probe; the server echoes the frame back unchanged, so the
    client can measure round-trip time.
``QUERY``
    Read-only lookup of one player's session status; answered with
    STATE (live/done) or ERROR.

A decoder never guesses across corruption: any header/CRC/JSON fault
raises :class:`ProtocolError` and the connection must be torn down —
resynchronising inside a byte stream is how protocol bugs hide.

Versioning: the header's first byte carries the sender's protocol
version.  This build speaks exactly :data:`PROTOCOL_VERSION` (3): a
frame stamped with any other version is a :class:`VersionMismatch`,
which the server answers with a ``bad_frame`` ERROR before closing
the connection.  Trace context is an optional payload field: HELLO
(``traces``: player id → trace id for resumed sessions), SUBMIT and
INPUT (``trace``) may carry a request-trace id which the server
threads through the shard and WAL layers and echoes on STATE/END —
see :mod:`repro.obs.tracing`.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict, List, Tuple

__all__ = [
    "END",
    "ERROR",
    "FRAME_NAMES",
    "FRAME_TYPES",
    "FrameDecoder",
    "FrameTooLarge",
    "HEADER",
    "HELLO",
    "INPUT",
    "MAX_FRAME_BYTES",
    "PING",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY",
    "STATE",
    "SUBMIT",
    "VersionMismatch",
    "encode_frame",
    "pack_frame",
]

#: the one protocol version this build speaks and accepts; every
#: frame header carries it in byte 0
PROTOCOL_VERSION = 3

#: ver(u8) typ(u8) payload_len(u32) payload_crc(u32) header_crc(u32)
HEADER = struct.Struct("<BBIII")

#: default sanity bound on one frame's payload (a SUBMIT carrying a
#: full cohort script is ~10 KiB; 1 MiB is generous, not unbounded)
MAX_FRAME_BYTES = 1 << 20

HELLO = 1
SUBMIT = 2
INPUT = 3
STATE = 4
END = 5
ERROR = 6
PING = 7
QUERY = 8

FRAME_NAMES: Dict[int, str] = {
    HELLO: "hello",
    SUBMIT: "submit",
    INPUT: "input",
    STATE: "state",
    END: "end",
    ERROR: "error",
    PING: "ping",
    QUERY: "query",
}
FRAME_TYPES = frozenset(FRAME_NAMES)


class ProtocolError(ValueError):
    """A malformed, corrupt or out-of-contract frame."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different protocol version."""


class FrameTooLarge(ProtocolError):
    """A frame announced a payload beyond the decoder's bound."""


def pack_frame(version: int, ftype: int, payload: Dict[str, Any]) -> bytes:
    """Frame one payload dict under ``version`` (no vocabulary checks).

    The physical framing shared by the gateway and the replication
    stream; each protocol checks its own frame types and version first.
    """
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"{FRAME_NAMES.get(ftype, ftype)} payload is {len(body)} bytes"
        )
    head = struct.pack("<BBII", version, ftype, len(body), zlib.crc32(body))
    return head + struct.pack("<I", zlib.crc32(head)) + body


def encode_frame(
    ftype: int, payload: Dict[str, Any], version: int = PROTOCOL_VERSION
) -> bytes:
    """Frame one gateway payload; raises :class:`ProtocolError` on misuse."""
    if ftype not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {ftype}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(f"cannot encode protocol version {version}")
    return pack_frame(version, ftype, payload)


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed it whatever the socket produced; it returns every complete
    frame and buffers the rest.  A partial frame is not an error (more
    bytes may arrive); a *provably corrupt* one is, and poisons the
    decoder — once the framing is lost there is no trustworthy way to
    find the next frame boundary.
    """

    __slots__ = (
        "_buf", "max_frame_bytes", "_poisoned", "frame_types", "version",
    )

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        frame_types: "frozenset[int]" = FRAME_TYPES,
        version: int = PROTOCOL_VERSION,
    ) -> None:
        self._buf = bytearray()
        self.max_frame_bytes = max_frame_bytes
        #: accepted frame types / version byte — the gateway's by
        #: default; the replication protocol reuses this decoder with
        #: its own (same framing, different vocabulary)
        self.frame_types = frame_types
        self.version = version
        self._poisoned = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet parsed into a frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Tuple[int, Dict[str, Any]]]:
        """Absorb ``data``; return all complete ``(type, payload)`` frames."""
        if self._poisoned:
            raise ProtocolError("decoder poisoned by an earlier corrupt frame")
        self._buf.extend(data)
        frames: List[Tuple[int, Dict[str, Any]]] = []
        while len(self._buf) >= HEADER.size:
            version, ftype, length, pay_crc, head_crc = HEADER.unpack_from(self._buf)
            if zlib.crc32(bytes(self._buf[: HEADER.size - 4])) != head_crc:
                self._fail("corrupt frame header (CRC mismatch)")
            if version != self.version:
                self._fail(
                    f"protocol version {version}, expected {self.version}",
                    VersionMismatch,
                )
            if ftype not in self.frame_types:
                self._fail(f"unknown frame type {ftype}")
            if length > self.max_frame_bytes:
                self._fail(
                    f"frame payload {length} bytes exceeds bound "
                    f"{self.max_frame_bytes}",
                    FrameTooLarge,
                )
            end = HEADER.size + length
            if len(self._buf) < end:
                break  # truncated so far; more bytes may still arrive
            body = bytes(self._buf[HEADER.size:end])
            if zlib.crc32(body) != pay_crc:
                self._fail("frame payload CRC mismatch")
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                self._fail("frame payload is not valid JSON")
            if not isinstance(payload, dict):
                self._fail("frame payload is not a JSON object")
            del self._buf[:end]
            frames.append((ftype, payload))
        return frames

    def _fail(self, detail: str, exc: type = ProtocolError) -> None:
        self._poisoned = True
        raise exc(detail)
