"""REPL wire protocol: shipping WAL records from a primary to standbys.

The replication stream reuses the gateway's physical framing (14-byte
CRC-checked header + JSON payload, :mod:`repro.gateway.protocol`) with
its own frame vocabulary and version space — the decoder is the same
class, parametrized; the conversation is different:

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
    LSNs are the replication cursor *and* the idempotence key).
``COMMIT``
    Source → standby: the durability watermark.  A standby fsyncs its
    copy and applies records only up to the last COMMIT, so a link
    that dies mid-batch leaves an un-committed tail the promotion path
    truncates instead of a half-applied state.
``HEARTBEAT``
    Source → standby while idle: epoch + tip.  Standbys measure link
    liveness (promotion triggers on missed heartbeats) and lag from
    it.
``ERROR``
    Either direction; ``code="fenced"`` means the peer's epoch proves
    this primary has been deposed and must stop shipping.
``ACK``
    Standby → source: the COMMIT watermark the standby has durably
    mirrored (fsynced into its own log).  The source folds acks into
    its per-shard quorum ledger; with quorum commit enabled
    (``PersistenceConfig.quorum_standbys``) the primary's
    ``Journal.wait_durable`` resolves only once enough standbys have
    acked the LSN.

The handshake also carries the standby's full **shard-subscription
set** (``subs``): a standby may follow a subset of the primary's
shards, so several standbys can split one keyspace between them (the
placement map in :mod:`repro.cluster` decides who owns what).
"""

from __future__ import annotations

import socket
from typing import Any, Dict

from ..gateway.protocol import (
    FrameDecoder,
    ProtocolError,
    encode_frame as _encode_frame,
)

__all__ = [
    "REPL_VERSION",
    "REPL_VERSIONS",
    "R_ACK",
    "R_APPEND",
    "R_COMMIT",
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

#: the replication protocol's own version byte (independent of the
#: gateway's client protocol — the two streams never share a socket)
REPL_VERSION = 1
REPL_VERSIONS = frozenset({REPL_VERSION})

R_HANDSHAKE = 1
R_APPEND = 2
R_COMMIT = 3
R_HEARTBEAT = 4
R_ERROR = 5
R_ACK = 6

R_FRAME_NAMES: Dict[int, str] = {
    R_HANDSHAKE: "handshake",
    R_APPEND: "append",
    R_COMMIT: "commit",
    R_HEARTBEAT: "heartbeat",
    R_ERROR: "error",
    R_ACK: "ack",
}
R_FRAME_TYPES = frozenset(R_FRAME_NAMES)


class ReplicationError(RuntimeError):
    """Replication-layer failures (fencing, bad handshakes, dead links)."""


def encode(ftype: int, payload: Dict[str, Any]) -> bytes:
    """Frame one REPL payload (same physical framing as the gateway)."""
    return _encode_frame(
        ftype, payload,
        version=REPL_VERSION,
        frame_types=R_FRAME_TYPES,
        versions=REPL_VERSIONS,
    )


def make_decoder(max_frame_bytes: int = 1 << 22) -> FrameDecoder:
    """A gateway decoder re-vocabularied for the REPL stream.

    The frame bound is wider than the gateway's: an APPEND batch can
    carry many records, and a snapshot-bootstrap handshake carries
    whole session states.
    """
    return FrameDecoder(
        max_frame_bytes,
        frame_types=R_FRAME_TYPES,
        versions=REPL_VERSIONS,
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
