"""WAL-shipping replication: warm standbys, replica reads, failover.

``repro.replicate`` turns the persist layer's per-shard write-ahead
logs (:mod:`repro.persist`) into a primary/standby pair:

* :class:`~repro.replicate.source.ReplicationSource` runs next to the
  primary's :class:`~repro.serve.manager.SessionManager`, tails each
  shard journal with the same CRC32 frame scan recovery uses, and
  ships records over a length-prefixed TCP stream (HANDSHAKE /
  APPEND / HEARTBEAT / ACK — :mod:`repro.replicate.protocol`), keeping
  a per-shard ack ledger of each standby's durable watermark so quorum
  commit (``PersistenceConfig.quorum_standbys``) can hold back each END
  until enough standbys mirror its end record;
* :class:`~repro.replicate.replica.StandbyReplica` mirrors each
  shipped batch durably, then applies it through the shared
  :func:`~repro.persist.records.apply_scripted_op` semantics, so its
  session states are bit-identical to the primary's (SHA-256 state
  digests), its lag is measurable (``repro_repl_lag_records``), and it
  answers read-only queries at any lag, reporting the lag in each view
  (:class:`~repro.cluster.ClusterGateway` asks the least-lagged live
  standby first);
* :class:`~repro.replicate.promote.Promoter` is failover: detect the
  silent primary by missed heartbeats, cut the un-fsynced tail, fence
  the epoch and hand the directory to the ordinary recovery path — a
  promoted standby is just a persistence root.
  :func:`~repro.replicate.promote.promote_directory` runs the same
  fence over a directory offline.

The whole story is soaked under fault injection by
:func:`repro.faultline.chaos.run_chaos` on the ``repl-kill-primary``
plan (its replica topology) and gated in CI by
``benchmarks/bench_replicate.py``.
"""

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
    R_ERROR,
    R_HANDSHAKE,
    R_HEARTBEAT,
    REPL_VERSION,
    ReplicationError,
)
from .replica import StandbyReplica
from .source import ReplicationSource

__all__ = [
    "Promoter",
    "PromotionReport",
    "R_ACK",
    "R_APPEND",
    "R_ERROR",
    "R_HANDSHAKE",
    "R_HEARTBEAT",
    "REPL_VERSION",
    "ReplicationError",
    "ReplicationSource",
    "StandbyReplica",
    "promote_directory",
    "read_epoch",
    "write_epoch",
]
