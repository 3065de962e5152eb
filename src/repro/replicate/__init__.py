"""WAL-shipping replication: warm standbys, lag-aware reads, failover.

``repro.replicate`` turns the persist layer's per-shard write-ahead
logs (:mod:`repro.persist`) into a primary/standby pair:

* :class:`~repro.replicate.source.ReplicationSource` runs next to the
  primary's :class:`~repro.serve.manager.SessionManager`, tails each
  shard journal with the same CRC32 frame scan recovery uses, and
  ships records over a length-prefixed TCP stream (HANDSHAKE /
  APPEND / COMMIT / HEARTBEAT / ACK —
  :mod:`repro.replicate.protocol`), keeping a per-shard ack ledger of
  each standby's durable watermark so quorum commit
  (``PersistenceConfig.quorum_standbys``) can gate ``wait_durable``;
* :class:`~repro.replicate.replica.StandbyReplica` mirrors the log
  durably and applies committed records through the shared
  :func:`~repro.persist.records.apply_scripted_op` semantics, so its
  session states are bit-identical to the primary's (SHA-256 state
  digests), its lag is measurable (``repro_repl_lag_records``), and it
  answers read-only queries while lag stays under a configured bound
  (:class:`~repro.replicate.replica.ReplicaLagging` otherwise);
* :class:`~repro.replicate.promote.Promoter` is failover: detect the
  silent primary by missed heartbeats, fence the epoch, truncate the
  un-committed tail and hand the directory to the ordinary recovery
  path — a promoted standby is just a persistence root.

The whole story is soaked under fault injection by
:func:`run_repl_chaos` (the ``repl-kill-primary`` plan; it is the
replica topology of :func:`repro.faultline.chaos.run_chaos`) and gated
in CI by ``benchmarks/bench_replicate.py``.
"""

from ..faultline.chaos import run_repl_chaos
from .promote import (
    Promoter,
    PromotionReport,
    promote_directory,
    read_epoch,
    write_epoch,
)
from .protocol import (
    R_ACK,
    R_APPEND,
    R_COMMIT,
    R_ERROR,
    R_HANDSHAKE,
    R_HEARTBEAT,
    REPL_VERSION,
    ReplicationError,
)
from .replica import ReplicaLagging, StandbyReplica
from .source import ReplicationSource

__all__ = [
    "Promoter",
    "PromotionReport",
    "R_ACK",
    "R_APPEND",
    "R_COMMIT",
    "R_ERROR",
    "R_HANDSHAKE",
    "R_HEARTBEAT",
    "REPL_VERSION",
    "ReplicaLagging",
    "ReplicationError",
    "ReplicationSource",
    "StandbyReplica",
    "promote_directory",
    "read_epoch",
    "run_repl_chaos",
    "write_epoch",
]
