"""Network gateway: the TCP wire edge of the VGBL serving layer.

``repro.gateway`` puts the sharded session server
(:mod:`repro.serve`) behind a real socket — the delivery gap between
an in-process benchmark and the paper's remote students:

* :mod:`repro.gateway.protocol` — length-prefixed, CRC-checked binary
  frames (HELLO / SUBMIT / INPUT / QUERY / STATE / END / ERROR / PING),
  every one stamped with the single protocol version (3) both sides
  speak;
* :class:`~repro.gateway.server.GatewayServer` — an asyncio TCP server
  bridging the event loop to the shard threads (submit is
  lock-protected and cheap; completion hops back via
  ``call_soon_threadsafe``), with per-connection bounded outbound
  queues (slow readers are disconnected, not buffered) and graceful
  drain that flushes shard journals before closing sockets;
* :class:`~repro.gateway.client.GatewayClient` — a connect timeout,
  bounded exponential-backoff retry, PING round trips on request, and
  explicit reconnect-resume of live sessions by player id.

Everything is instrumented through :mod:`repro.obs`
(``repro_gateway_*`` connection/frame/byte counters, handshake and RTT
histograms) and asserted by the gateway rules in ``examples/slo.toml``.
"""

from .client import (
    GatewayClient,
    GatewayClosed,
    GatewayError,
    GatewayRejected,
    backoff_delays,
)
from .protocol import (
    FrameDecoder,
    FrameTooLarge,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    VersionMismatch,
    encode_frame,
)
from .server import GatewayConfig, GatewayServer, GatewayThread
from .telemetry import TelemetryServer

__all__ = [
    "FrameDecoder",
    "FrameTooLarge",
    "GatewayClient",
    "GatewayClosed",
    "GatewayConfig",
    "GatewayError",
    "GatewayRejected",
    "GatewayServer",
    "GatewayThread",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TelemetryServer",
    "VersionMismatch",
    "backoff_delays",
    "encode_frame",
]
