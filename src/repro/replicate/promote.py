"""Failover: cut the tail, fence the old epoch, adopt the log.

Promotion turns a warm standby's replicated log into a primary WAL the
ordinary recovery path can serve from.  The steps are deliberately
boring — each one is a thing the persist layer already knows how to do:

1. **Stop replicating.**  The standby's shipping connections close and
   its logs flush; nothing moves underneath the promotion.
2. **Cut the tail.**  A live standby truncates whatever its mirror log
   holds past the last fsync (a batch handler that died between its
   write and its fsync); offline, the journal scan's torn-tail
   truncation is the cut.  Either way the new primary must not invent
   records nobody made durable.
3. **Fence the epoch.**  The shard's epoch is bumped in its ``EPOCH``
   sidecar and an epoch-fence record is appended (durably) to the log
   itself, so both the filesystem and the log agree history changed
   hands.  A deposed primary that comes back and handshakes sees the
   higher epoch and is refused (``fenced``).
4. **Hand over to recovery.**  The promoted directory is now a normal
   persistence root: ``SessionManager.recover()`` /
   ``GatewayServer.recover()`` rebuild every committed session
   bit-identically and clients reconnect-resume exactly as they do
   after a crash of the original primary.

Only step 2 differs between :meth:`Promoter.promote` (a live standby)
and :func:`promote_directory` (a directory, offline); both hand their
cut shards to the one fence routine, :func:`_fence`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..persist import (
    Journal,
    PersistenceConfig,
    fence_record,
    list_shard_dirs,
    recover_shard,
    scan_journal,
)

__all__ = [
    "PromotionReport",
    "Promoter",
    "promote_directory",
    "read_epoch",
    "write_epoch",
]

_M_PROMOTIONS = _obs.counter(
    "repro_repl_promotions_total",
    "Standby shards promoted to primary",
)

_LOG = _obslog.get_logger("replicate")

_EPOCH_FILE = "EPOCH"


def read_epoch(shard_dir: Union[str, Path]) -> int:
    """The shard's current epoch (1 when no ``EPOCH`` sidecar exists)."""
    path = Path(shard_dir) / _EPOCH_FILE
    try:
        return max(1, int(path.read_text().strip()))
    except (OSError, ValueError):
        return 1


def write_epoch(shard_dir: Union[str, Path], epoch: int) -> None:
    """Durably record the shard's epoch in its ``EPOCH`` sidecar."""
    shard_dir = Path(shard_dir)
    shard_dir.mkdir(parents=True, exist_ok=True)
    (shard_dir / _EPOCH_FILE).write_text(f"{int(epoch)}\n")


@dataclass(slots=True)
class PromotionReport:
    """What one promotion did, per shard (JSON-able)."""

    root: str
    shards: List[Dict[str, Any]] = field(default_factory=list)
    #: player id -> SHA-256 state digest of every *live* session the
    #: promoted log rebuilds (filled when a game is given to audit)
    digests: Dict[str, str] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def epochs(self) -> Dict[int, int]:
        return {row["shard"]: row["epoch"] for row in self.shards}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "root": self.root,
            "shards": list(self.shards),
            "digests": dict(self.digests),
            "duration_s": round(self.duration_s, 4),
        }


class Promoter:
    """Decides on, and executes, the standby's takeover."""

    def __init__(
        self,
        replica: Any,
        heartbeat_timeout_s: float = 2.0,
    ) -> None:
        self.replica = replica
        self.heartbeat_timeout_s = heartbeat_timeout_s

    # -- detection -----------------------------------------------------
    def should_promote(self) -> bool:
        """True once every shard's heartbeat has gone quiet too long.

        ``heartbeat_age()`` is the seconds since the *freshest* shard
        heard from the primary; a shard that never connected reports
        infinity, so a standby that never reached its primary is also
        (correctly) promotable.
        """
        return self.replica.heartbeat_age() > self.heartbeat_timeout_s

    def wait_for_failure(self, timeout_s: Optional[float] = None) -> bool:
        """Block until :meth:`should_promote` (or the timeout) arrives."""
        deadline = None if timeout_s is None else monotonic() + timeout_s
        while not self.should_promote():
            if deadline is not None and monotonic() >= deadline:
                return False
            sleep(min(0.05, self.heartbeat_timeout_s / 4))
        return True

    # -- the takeover --------------------------------------------------
    def promote(self, game: Any = None) -> PromotionReport:
        """Stop, cut, fence, adopt; returns the per-shard report.

        With ``game`` given, every shard is additionally put through a
        read-only :func:`recover_shard` pass and the rebuilt live
        sessions' digests land in the report — the bit-identity handle
        the failover audit compares against an independent replay.
        """
        replica = self.replica
        replica.stop()
        states = replica.shard_states()
        report = _fence(replica.directory, (
            (st.index, st.directory, st.epoch, st.truncate_uncommitted(),
             st.applied_lsn, st.commit_lsn)
            for st in states
        ), game)
        for st in states:
            st.epoch = report.epochs[st.index]
        return report


def promote_directory(
    root: Union[str, Path], game: Any = None
) -> PromotionReport:
    """Offline promotion: fence every shard journal under ``root``.

    The ``repro repl promote`` path — no live replica, so the torn-tail
    truncation the journal scan already performs is the cut.  Each
    ``shard-NN`` directory is reported as shard ``NN``.
    """

    def cuts() -> Iterable[_Cut]:
        for index, directory in list_shard_dirs(Path(root)):
            scan = scan_journal(directory, truncate=True)
            yield (index, directory, 1, scan.discarded_bytes,
                   scan.tip_lsn, scan.tip_lsn)

    return _fence(root, cuts(), game)


#: one cut shard: ``(shard, directory, epoch known besides the EPOCH
#: sidecar, truncated bytes, applied LSN, commit LSN)``
_Cut = Tuple[int, Path, int, int, int, int]


def _fence(
    root: Union[str, Path], cuts: Iterable[_Cut], game: Any
) -> PromotionReport:
    """The fence routine online and offline promotion share.

    For each cut shard: bump its epoch past both the ``EPOCH`` sidecar
    and the epoch the caller knows of, write the sidecar, append the
    fence record, count and log it and add its report row.  With
    ``game`` given, every promoted log is then recovered read-only and
    its live sessions' digests reported.
    """
    t0 = perf_counter()
    report = PromotionReport(root=str(root))
    directories = []
    for shard, directory, known, truncated, applied_lsn, commit_lsn in cuts:
        epoch = max(read_epoch(directory), known) + 1
        write_epoch(directory, epoch)
        fence_lsn = _append_fence(directory, epoch)
        report.shards.append({
            "shard": shard,
            "epoch": epoch,
            "fence_lsn": fence_lsn,
            "truncated_bytes": truncated,
            "applied_lsn": applied_lsn,
            "commit_lsn": commit_lsn,
        })
        directories.append(directory)
        _M_PROMOTIONS.inc()
        _LOG.info("repl.promoted", shard=shard, dir=str(directory),
                  epoch=epoch, fence_lsn=fence_lsn, truncated_bytes=truncated)
    if game is not None:
        for directory in directories:
            recovery = recover_shard(
                directory, game, truncate=False, write_snapshots=False,
            )
            report.digests.update(recovery.digests())
    report.duration_s = perf_counter() - t0
    return report


def _append_fence(directory: Path, epoch: int) -> int:
    """Durably append the epoch fence via a short-lived journal.

    ``sync_each`` mode: the fence is fsynced before this returns, and
    :class:`Journal`'s tip-attach resumes the shard's log in place
    (assigning the fence the next LSN).
    """
    journal = Journal(
        directory,
        PersistenceConfig(directory=directory, sync_each=True),
        label=f"promote-{directory.name}",
    )
    try:
        return journal.append(fence_record(epoch))
    finally:
        journal.close()
