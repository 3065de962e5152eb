"""Durable session persistence: WAL, snapshots, crash recovery.

``repro.persist`` makes the sharded game server (:mod:`repro.serve`)
restartable: each shard owns an append-only, CRC-framed write-ahead
log with **group commit** (one fsync covers a batch of records across
sessions), per-session **snapshots** written atomically, WAL
**compaction** that deletes segments fully covered by snapshots, and
**recovery** that tolerates a torn tail and rebuilds every committed
session bit-identically (snapshot + deterministic op replay).

The pieces:

* :class:`~repro.persist.wal.Journal` /
  :class:`~repro.persist.wal.PersistenceConfig` — the log itself;
* :mod:`repro.persist.records` — record payloads, the op codec, the
  session fold (:class:`~repro.persist.records.SessionTable`), the
  shared step semantics and the state digest;
* :class:`~repro.persist.gate.DurableGate` — holds what waits on a
  record (a finished session's END) until the log covers it;
* :class:`~repro.persist.snapshot.SnapshotStore` +
  :func:`~repro.persist.snapshot.compact_segments` — resume points and
  segment garbage collection;
* :func:`~repro.persist.recovery.recover_shard` /
  :func:`~repro.persist.recovery.scan_journal` — crash recovery, used
  by ``SessionManager.recover()`` and the ``repro wal`` CLI.

Everything is instrumented through :mod:`repro.obs`
(``repro_persist_*`` commit-latency / group-size / recovery-duration
histograms and torn-record counters) and asserted by the persist rules
in ``examples/slo.toml``.
"""

from .gate import DurableGate
from .records import (
    PersistError,
    SessionTable,
    WalLayoutError,
    apply_scripted_op,
    end_record,
    fence_record,
    input_record,
    op_from_dict,
    op_to_dict,
    progress_record,
    start_record,
    state_digest,
)
from .recovery import (
    RecoveredSession,
    ScanReport,
    ShardRecovery,
    ensure_wal_layout,
    rebuild_engine,
    recover_shard,
    scan_journal,
)
from .snapshot import (
    SnapshotStore,
    compact_segments,
    compaction_watermark,
    snapshot_dir_for,
)
from .wal import (
    Journal,
    PersistenceConfig,
    encode_frame,
    list_segments,
    list_shard_dirs,
    read_segment,
    segment_first_lsn,
)

__all__ = [
    "DurableGate",
    "Journal",
    "PersistError",
    "PersistenceConfig",
    "RecoveredSession",
    "ScanReport",
    "SessionTable",
    "ShardRecovery",
    "SnapshotStore",
    "WalLayoutError",
    "apply_scripted_op",
    "compact_segments",
    "compaction_watermark",
    "encode_frame",
    "end_record",
    "ensure_wal_layout",
    "fence_record",
    "input_record",
    "list_segments",
    "list_shard_dirs",
    "op_from_dict",
    "op_to_dict",
    "progress_record",
    "read_segment",
    "rebuild_engine",
    "recover_shard",
    "scan_journal",
    "segment_first_lsn",
    "snapshot_dir_for",
    "start_record",
    "state_digest",
]
