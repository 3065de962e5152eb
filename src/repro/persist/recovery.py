"""Crash recovery: rebuild served sessions from snapshots + WAL replay.

Recovery of one shard journal is a pure function of what is on disk:

1. **Scan** the segment files in order, stopping at the first torn or
   corrupt frame.  With ``truncate=True`` the tail is cut back to the
   last valid record (and any later, now-unreachable segments are
   removed) so the journal can be appended to again; every detected
   tear is counted and exported.
2. **Load snapshots**; a snapshot whose digest does not verify is
   ignored (the log has the same information, just slower).
3. **Fold the records** over the snapshots with
   :class:`~repro.persist.records.SessionTable`, the same fold the
   replication standby and ``repro wal`` use: each session ends up
   with its snapshot state (if any), its cursor, and the ops between
   the snapshot's cursor and that one queued for replay; ``end``
   retires it.
4. **Rebuild engines** with :func:`rebuild_engine`: fresh engine per
   live session, snapshot state installed under a simulated clock
   rewound to the saved play time, then the queued ops replayed
   through the *same* step function the serving layer uses — so the
   rebuilt state is bit-identical to what the crashed process had
   committed (asserted via state digests in the fault-injection
   tests).

Sessions that had already ended are counted, not rebuilt.  After a
successful rebuild each live session gets a fresh snapshot at the log
tip, which both documents the recovery and lets compaction drop the
entire replayed prefix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..runtime.state import GameState
from ..video.player import SimulatedClock
from .records import (
    SessionTable,
    WalLayoutError,
    apply_scripted_op,
    op_from_dict,
    ops_from_dicts,
    state_digest,
)
from .snapshot import SNAPSHOT_DIRNAME, SnapshotStore, snapshot_dir_for
from .wal import _M_TORN, list_segments, read_segment

__all__ = [
    "RecoveredSession",
    "ScanReport",
    "ShardRecovery",
    "ensure_wal_layout",
    "rebuild_engine",
    "recover_shard",
    "scan_journal",
]

_M_RECOVERY = _obs.histogram(
    "repro_persist_recovery_seconds",
    "Wall time to recover one shard journal (scan + snapshot + replay)",
)
_M_REPLAYED = _obs.counter(
    "repro_persist_replayed_records_total",
    "Logged ops replayed through engines during recovery",
)
_M_RECOVERED = _obs.counter(
    "repro_persist_recovered_sessions_total",
    "Live sessions rebuilt by recovery",
)

_LOG = _obslog.get_logger("persist")

#: non-segment entries a healthy shard journal directory may contain
_KNOWN_SIDECARS = frozenset({SNAPSHOT_DIRNAME, "EPOCH"})


def ensure_wal_layout(directory: Union[str, Path]) -> None:
    """Fail fast when ``directory`` exists but is not a shard journal.

    A real shard journal always holds at least one ``wal-*.log``
    segment (the journal writes segment 1 the moment it opens, and
    compaction never deletes the active segment).  A directory that
    exists with no segments is therefore either empty (wrong path,
    nothing was ever journalled there) or foreign (somebody else's
    files) — both raise :class:`WalLayoutError` with the offending
    entries named, instead of an empty-looking recovery or a failure
    deep inside the record fold.  A directory that does not exist is
    fine: that is the fresh-start case recovery already handles.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return
    if list_segments(directory):
        return
    foreign = sorted(
        entry.name for entry in directory.iterdir()
        if entry.name not in _KNOWN_SIDECARS
    )
    if foreign:
        raise WalLayoutError(
            f"{directory} is not a WAL directory: no wal-*.log segments, "
            f"found foreign entries {foreign[:5]}"
        )
    raise WalLayoutError(
        f"{directory} exists but holds no WAL segments (empty layout); "
        "refusing to recover from the wrong directory"
    )


@dataclass(slots=True)
class ScanReport:
    """What a journal scan found on disk."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    segments: int = 0
    torn_records: int = 0
    discarded_bytes: int = 0
    tip_lsn: int = 0


def scan_journal(
    directory: Union[str, Path], truncate: bool = False
) -> ScanReport:
    """Read every valid record of a journal, in LSN order.

    The logical log ends at the first invalid frame: records past a
    mid-log tear can no longer be ordered trustworthily, so they are
    discarded (and counted as bytes).  ``truncate=True`` additionally
    cuts the torn segment back to its last valid record and unlinks any
    later segments, restoring the append invariant.
    """
    report = ScanReport()
    segments = list_segments(directory)
    report.segments = len(segments)
    for idx, (seq, path) in enumerate(segments):
        records, valid, torn = read_segment(path)
        for record in records:
            if record.get("t") == "h":
                continue
            report.records.append(record)
            lsn = int(record.get("n", 0))
            if lsn > report.tip_lsn:
                report.tip_lsn = lsn
        if torn:
            report.torn_records += 1
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover
                size = valid
            report.discarded_bytes += size - valid
            if truncate:
                os.truncate(path, valid)
                _M_TORN.inc()
                _LOG.warning("persist.torn_tail_truncated",
                             segment=path.name, valid_bytes=valid)
            for _seq2, path2 in segments[idx + 1 :]:
                try:
                    report.discarded_bytes += path2.stat().st_size
                except OSError:  # pragma: no cover
                    pass
                if truncate:
                    path2.unlink(missing_ok=True)
            break
    return report


@dataclass(slots=True)
class RecoveredSession:
    """One live session rebuilt to its last committed state."""

    player_id: str
    dt: float
    ops: List[Any]
    cursor: int  #: ops already applied (snapshot cursor + replayed ops)
    engine: Any
    digest: str  #: SHA-256 of the rebuilt state (bit-identity check)
    replayed: int  #: ops replayed beyond the snapshot


@dataclass(slots=True)
class ShardRecovery:
    """Everything recovery did for one shard journal."""

    directory: Path
    sessions: List[RecoveredSession] = field(default_factory=list)
    ended_sessions: int = 0
    torn_records: int = 0
    discarded_bytes: int = 0
    snapshots_used: int = 0
    snapshots_rejected: int = 0
    orphan_records: int = 0
    replayed_records: int = 0
    tip_lsn: int = 0
    duration_s: float = 0.0

    def digests(self) -> Dict[str, str]:
        return {s.player_id: s.digest for s in self.sessions}


def rebuild_engine(
    game: Any,
    state: Optional[Dict[str, Any]] = None,
    replay: Sequence[Dict[str, Any]] = (),
    dt: float = 0.25,
    with_video: bool = False,
) -> Any:
    """Fresh engine restored to ``state``, ``replay`` op dicts on top.

    This is the single definition of "rebuild a session from durable
    parts" shared by crash recovery and the replication applier: a
    simulated clock rewound to the saved play time, snapshot state
    installed, then each serialised op pushed through
    :func:`apply_scripted_op` — so any rebuilt engine is bit-identical
    to the primary that wrote the log.
    """
    gs = GameState.from_dict(state) if state is not None else None
    clock = SimulatedClock(start=gs.play_time if gs is not None else 0.0)
    engine = game.new_engine(clock=clock, with_video=with_video)
    engine.start()
    if gs is not None:
        engine.state = gs
        if engine.player is not None:
            sc = engine.scenarios[gs.current_scenario]
            engine.player.loop_segment = sc.loop
            engine.player.play(sc.segment_ref)
        engine.compositor.invalidate()
    for op_dict in replay:
        apply_scripted_op(engine, op_from_dict(op_dict), dt)
    return engine


def recover_shard(
    directory: Union[str, Path],
    game: Any,
    with_video: bool = False,
    truncate: bool = True,
    write_snapshots: bool = True,
) -> ShardRecovery:
    """Rebuild every committed session of one shard journal.

    ``game`` is the :class:`~repro.core.project.CompiledGame` the
    sessions were playing — engines are minted from it exactly as the
    serving layer does.  Returns a :class:`ShardRecovery` whose
    ``sessions`` are live (resumable) sessions; already-ended sessions
    are only counted.
    """
    t0 = perf_counter()
    directory = Path(directory)
    ensure_wal_layout(directory)
    scan = scan_journal(directory, truncate=truncate)
    store = SnapshotStore(snapshot_dir_for(directory))
    snapshots, rejected = store.load_all()
    table = SessionTable.from_log(snapshots.values(), scan.records)

    report = ShardRecovery(
        directory=directory,
        torn_records=scan.torn_records,
        discarded_bytes=scan.discarded_bytes,
        snapshots_rejected=rejected,
        orphan_records=table.orphans,
        tip_lsn=scan.tip_lsn,
    )
    for sid, entry in sorted(table.items()):
        if entry.ended:
            report.ended_sessions += 1
            if truncate:
                store.remove(sid)
            continue
        engine = rebuild_engine(
            game, state=entry.state, replay=entry.replay,
            dt=entry.dt, with_video=with_video,
        )
        session = RecoveredSession(
            player_id=sid,
            dt=entry.dt,
            ops=ops_from_dicts(entry.ops),
            cursor=entry.cursor,
            engine=engine,
            digest=state_digest(engine.state),
            replayed=len(entry.replay),
        )
        report.sessions.append(session)
        report.replayed_records += len(entry.replay)
        if entry.from_snapshot:
            report.snapshots_used += 1
        if write_snapshots:
            store.write(
                sid, entry.dt, entry.ops, entry.cursor,
                engine.state.to_dict(), lsn=scan.tip_lsn,
            )
    report.duration_s = perf_counter() - t0
    if _obs.enabled():
        _M_RECOVERY.observe(report.duration_s)
        _M_REPLAYED.inc(report.replayed_records)
        _M_RECOVERED.inc(len(report.sessions))
        # Materialise the torn counter even on clean recoveries so the
        # "torn == 0" SLO rule sees a real series, not a missing metric.
        _M_TORN.inc(0 if truncate else scan.torn_records)
        _LOG.info(
            "persist.recovered", dir=str(directory),
            live=len(report.sessions), ended=report.ended_sessions,
            replayed=report.replayed_records, torn=report.torn_records,
            duration_ms=round(report.duration_s * 1e3, 3),
        )
    return report
