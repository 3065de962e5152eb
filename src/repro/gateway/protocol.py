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
    One extra scripted op appended to a live session (best effort: ops
    racing the session's completion are dropped and the client simply
    sees END).
``STATE`` (server → client)
    Acknowledgement / session status, echoing the request ``seq``.
``END`` (server → client)
    Pushed when a session finishes: outcome, score, steps and the
    SHA-256 state digest (the bit-identity handle recovery tests use).
``ERROR`` (server → client)
    Request or connection level failure, with a machine ``code``.
``PING``
    Heartbeat; the receiving side echoes the frame back unchanged, so
    round-trip time is measurable from either end.
``QUERY`` (v3+)
    Read-only lookup of one player's session status; answered with
    STATE (live/done/replica view) or ERROR.  On a read-replica
    gateway this is the *only* accepted session verb.

A decoder never guesses across corruption: any header/CRC/JSON fault
raises :class:`ProtocolError` and the connection must be torn down —
resynchronising inside a byte stream is how protocol bugs hide.

Versioning: the header's first byte carries the sender's protocol
version, and a decoder accepts any member of
:data:`SUPPORTED_VERSIONS`.  The server answers HELLO with
``min(its version, the client's version)`` (:func:`negotiate_version`)
and speaks that for the rest of the connection, so old clients keep
working against new servers and vice versa.  Version 2 adds the
optional trace-context field: HELLO (``traces``: player id → trace id
for resumed sessions), SUBMIT and INPUT (``trace``) may carry a
request-trace id which the server threads through the shard and WAL
layers and echoes on STATE/END — see :mod:`repro.obs.tracing`.
Unknown payload keys were always ignored, so the field is also
harmless to v1 peers.  Version 3 adds the ``QUERY`` frame: a read-only
lookup of one player's session state, answered with STATE or ERROR —
the read path a lag-aware replica gateway serves
(:mod:`repro.replicate`).
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
    "MIN_PROTOCOL_VERSION",
    "PING",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY",
    "STATE",
    "SUBMIT",
    "SUPPORTED_VERSIONS",
    "VersionMismatch",
    "encode_frame",
    "negotiate_version",
]

#: the newest protocol this build speaks (v2 = optional trace context,
#: v3 = QUERY read path for replicas); every frame header carries the
#: sender's version in byte 0
PROTOCOL_VERSION = 3

#: the oldest version still accepted on the wire
MIN_PROTOCOL_VERSION = 1

#: every version a decoder accepts; anything else is a VersionMismatch
SUPPORTED_VERSIONS = frozenset(
    range(MIN_PROTOCOL_VERSION, PROTOCOL_VERSION + 1)
)


def negotiate_version(peer_version: int) -> int:
    """The version both sides speak: ``min(ours, theirs)``.

    Raises :class:`VersionMismatch` for peers older than
    :data:`MIN_PROTOCOL_VERSION` (a peer *newer* than us is fine — it
    is expected to downgrade to our answer, exactly as we do to its).
    """
    if peer_version < MIN_PROTOCOL_VERSION:
        raise VersionMismatch(
            f"peer protocol version {peer_version} predates the oldest "
            f"supported version {MIN_PROTOCOL_VERSION}"
        )
    return min(PROTOCOL_VERSION, peer_version)

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
    """A frame announced a payload beyond the negotiated bound."""


def encode_frame(
    ftype: int,
    payload: Dict[str, Any],
    version: int = PROTOCOL_VERSION,
    frame_types: "frozenset[int]" = FRAME_TYPES,
    versions: "frozenset[int]" = SUPPORTED_VERSIONS,
) -> bytes:
    """Frame one payload dict; raises :class:`ProtocolError` on misuse.

    ``frame_types``/``versions`` default to the gateway's vocabulary;
    the replication protocol passes its own (same framing, different
    frame-type and version sets).
    """
    if ftype not in frame_types:
        raise ProtocolError(f"unknown frame type {ftype}")
    if version not in versions:
        raise VersionMismatch(f"cannot encode protocol version {version}")
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"{FRAME_NAMES.get(ftype, ftype)} payload is {len(body)} bytes"
        )
    head = struct.pack("<BBII", version, ftype, len(body), zlib.crc32(body))
    return head + struct.pack("<I", zlib.crc32(head)) + body


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed it whatever the socket produced; it returns every complete
    frame and buffers the rest.  A partial frame is not an error (more
    bytes may arrive); a *provably corrupt* one is, and poisons the
    decoder — once the framing is lost there is no trustworthy way to
    find the next frame boundary.
    """

    __slots__ = (
        "_buf", "max_frame_bytes", "_poisoned", "last_version",
        "frame_types", "versions",
    )

    def __init__(
        self,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        frame_types: "frozenset[int]" = FRAME_TYPES,
        versions: "frozenset[int]" = SUPPORTED_VERSIONS,
    ) -> None:
        self._buf = bytearray()
        self.max_frame_bytes = max_frame_bytes
        #: accepted frame types / version bytes — the gateway's by
        #: default; the replication protocol reuses this decoder with
        #: its own sets (same framing, different vocabulary)
        self.frame_types = frame_types
        self.versions = versions
        self._poisoned = False
        #: version byte of the most recent accepted frame (None before
        #: the first) — what the server negotiates against at HELLO
        self.last_version: "int | None" = None

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
            if version not in self.versions:
                self._fail(
                    f"protocol version {version}, supported "
                    f"{sorted(self.versions)}",
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
            self.last_version = version
            frames.append((ftype, payload))
        return frames

    def _fail(self, detail: str, exc: type = ProtocolError) -> None:
        self._poisoned = True
        raise exc(detail)
