"""REPL wire protocol: shipping WAL records from a primary to standbys.

The replication stream reuses the gateway's physical framing (14-byte
CRC-checked header + JSON payload, :mod:`repro.gateway.protocol`) with
its own frame vocabulary and its own single version,
:data:`REPL_VERSION` — the decoder is the same class, parametrized;
the conversation is different:

``HANDSHAKE``
    Standby → source: which shard it replicates, its current epoch and
    the first LSN it still needs (``start = applied + 1``).  Source →
    standby: the agreed start (bumped forward when compaction has
    already dropped the requested prefix), the shard's current epoch
    and durable tip, and — on a bumped start — the snapshot documents
    covering everything below it, so a standby can join mid-stream.
``APPEND``
    Source → standby: a batch of WAL records in LSN order, exactly as
    the primary journalled them (the ``n`` stamps travel unchanged —
    LSNs are the replication cursor *and* the idempotence key).  The
    source's tailer ships records as soon as the primary's segment
    files show them (the journal's flusher writes a batch just before
    it fsyncs it).  Each APPEND is its own commit: the standby logs,
    fsyncs and applies the whole batch, then acks its last LSN.
``HEARTBEAT``
    Source → standby while idle: epoch + tip.  Standbys measure link
    liveness (promotion triggers on missed heartbeats) and lag from
    it.
``ERROR``
    Either direction; ``code="fenced"`` means the peer's epoch proves
    this primary has been deposed and must stop shipping.
``ACK``
    Standby → source: the highest LSN the standby has durably mirrored
    (fsynced into its own log).  The source folds acks into its
    per-shard quorum ledger; with quorum commit enabled
    (``PersistenceConfig.quorum_standbys``) a finished session's END
    goes out only once enough standbys have acked its end record's
    LSN.

Every standby mirrors every shard, one connection each; the handshake
names the shard a connection carries.
"""

from __future__ import annotations

import socket
from typing import Any, Dict

from ..gateway.protocol import FrameDecoder, ProtocolError, pack_frame

__all__ = [
    "REPL_VERSION",
    "R_ACK",
    "R_APPEND",
    "R_ERROR",
    "R_FRAME_NAMES",
    "R_FRAME_TYPES",
    "R_HANDSHAKE",
    "R_HEARTBEAT",
    "ReplicationError",
    "encode",
    "hard_close",
    "make_decoder",
]

#: the replication protocol's own version byte, the only one its
#: decoder accepts (independent of the gateway's client protocol — the
#: two streams never share a socket)
REPL_VERSION = 1

R_HANDSHAKE = 1
R_APPEND = 2
#: 3 stays unassigned: an older peer's COMMIT frame must fail to decode
R_HEARTBEAT = 4
R_ERROR = 5
R_ACK = 6

R_FRAME_NAMES: Dict[int, str] = {
    R_HANDSHAKE: "handshake",
    R_APPEND: "append",
    R_HEARTBEAT: "heartbeat",
    R_ERROR: "error",
    R_ACK: "ack",
}
R_FRAME_TYPES = frozenset(R_FRAME_NAMES)


class ReplicationError(RuntimeError):
    """Replication-layer failures (fencing, bad handshakes, dead links)."""


def encode(ftype: int, payload: Dict[str, Any]) -> bytes:
    """Frame one REPL payload (same physical framing as the gateway)."""
    if ftype not in R_FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {ftype}")
    return pack_frame(REPL_VERSION, ftype, payload)


def make_decoder(max_frame_bytes: int = 1 << 22) -> FrameDecoder:
    """A gateway decoder re-vocabularied for the REPL stream.

    The frame bound is wider than the gateway's: an APPEND batch can
    carry many records, and a snapshot-bootstrap handshake carries
    whole session states.
    """
    return FrameDecoder(
        max_frame_bytes, frame_types=R_FRAME_TYPES, version=REPL_VERSION,
    )


def require(payload: Dict[str, Any], *keys: str) -> None:
    """Raise :class:`ProtocolError` unless every key is present."""
    for key in keys:
        if key not in payload:
            raise ProtocolError(f"REPL payload missing {key!r}")


def hard_close(sock: socket.socket) -> None:
    """``shutdown`` then ``close``, ignoring errors.

    ``close`` alone neither wakes a thread blocked in ``recv``/``accept``
    on the socket nor sends the peer a FIN while that thread pins it;
    ``shutdown`` does both, so neither side waits on a half-dead link.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass
