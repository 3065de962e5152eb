"""Per-session snapshots and WAL compaction.

A snapshot is a self-contained resume point for one served session:
its full :class:`~repro.runtime.state.GameState` dict, the script op
list, the cursor (ops already applied), and the WAL LSN the state
covers.  Snapshots are written atomically (temp file + fsync +
``os.replace``) with an embedded state digest, so a crash mid-snapshot
leaves the previous snapshot intact and a corrupted file is detected
and ignored at load — recovery then simply replays more of the log.

Compaction follows from the snapshot watermark: a *sealed* WAL segment
whose last LSN is at or below the oldest LSN any live session still
needs (its latest snapshot LSN; one less than its start-record LSN if
it has none) contains only bytes every possible recovery would skip,
so the file is deleted outright.  The check is header-only — segment
``i`` ends where segment ``i+1``'s header says it begins — and only a
contiguous prefix is ever dropped, keeping the surviving log dense.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Sequence, Set, Tuple, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from .records import ops_to_dicts, state_digest
from .wal import list_segments, segment_first_lsn

__all__ = [
    "SnapshotStore",
    "compact_segments",
    "compaction_watermark",
    "snapshot_dir_for",
]

SNAPSHOT_DIRNAME = "snapshots"

_M_SNAPSHOTS = _obs.counter(
    "repro_persist_snapshots_total",
    "Session snapshots written, by shard journal",
)
_M_SNAPSHOT_REJECTS = _obs.counter(
    "repro_persist_snapshot_rejects_total",
    "Snapshot files ignored at load (digest mismatch / unparseable)",
)
_M_COMPACTED = _obs.counter(
    "repro_persist_segments_compacted_total",
    "WAL segments deleted because snapshots fully cover them",
)

_LOG = _obslog.get_logger("persist")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-to-temp + fsync + rename: all-or-nothing on crash."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class SnapshotStore:
    """Atomic per-session snapshot files under one shard's journal dir.

    The store remembers which snapshots it holds — the ids it wrote,
    plus the files one directory listing found at construction (left by
    a previous process) — so retiring a session that never snapshotted,
    the common case, costs no hash, no path and no syscall.  A store
    does not see files that another store writes after it was opened.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: player ids this store has written a snapshot for
        self._ids: Set[str] = set()
        #: file names found at construction and not yet rewritten/removed
        self._inherited: Set[str] = {
            path.name for path in self.directory.glob("snap-*.json")
        }

    @staticmethod
    def _name(player_id: str) -> str:
        # Player ids are arbitrary strings ("load-3#12"); hash for a
        # filesystem-safe, collision-resistant name.  The id itself is
        # stored inside the document.
        digest = hashlib.sha1(player_id.encode("utf-8")).hexdigest()[:24]
        return f"snap-{digest}.json"

    # ------------------------------------------------------------------
    def write(
        self,
        player_id: str,
        dt: float,
        ops: Sequence[Any],
        cursor: int,
        state: Mapping[str, Any],
        lsn: int,
    ) -> Path:
        """Snapshot one session's state as of WAL position ``lsn``.

        ``ops`` may be live op objects or already-serialised dicts
        (recovery re-snapshots from its own decoded table).
        """
        op_dicts = [
            op if isinstance(op, dict) else None for op in ops
        ]
        if any(d is None for d in op_dicts):
            op_dicts = ops_to_dicts(ops)
        state_dict = dict(state)
        doc = {
            "sid": player_id,
            "dt": dt,
            "cursor": int(cursor),
            "lsn": int(lsn),
            "ops": op_dicts,
            "state": state_dict,
            "digest": state_digest(state_dict),
        }
        name = self._name(player_id)
        path = self.directory / name
        _atomic_write_bytes(path, json.dumps(doc, sort_keys=True).encode("utf-8"))
        self._ids.add(player_id)
        self._inherited.discard(name)
        _M_SNAPSHOTS.inc()
        return path

    def load_all(self) -> Tuple[Dict[str, Dict[str, Any]], int]:
        """All valid snapshots by player id, plus a rejected-file count.

        A snapshot whose payload does not match its embedded digest (a
        hand-edited or bit-rotted file — atomic writes rule out tears)
        is skipped: recovery falls back to replaying the log instead.
        """
        out: Dict[str, Dict[str, Any]] = {}
        rejected = 0
        for path in sorted(self.directory.glob("snap-*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                rejected += 1
                continue
            if (
                not isinstance(doc, dict)
                or "sid" not in doc
                or "state" not in doc
                or state_digest(doc["state"]) != doc.get("digest")
            ):
                rejected += 1
                _LOG.warning("persist.snapshot_rejected", file=path.name)
                continue
            out[doc["sid"]] = doc
        if rejected:
            _M_SNAPSHOT_REJECTS.inc(rejected)
        return out, rejected

    def remove(self, player_id: str) -> bool:
        """Delete ``player_id``'s snapshot; False when it has none."""
        if player_id in self._ids:
            self._ids.discard(player_id)
            name = self._name(player_id)
        elif self._inherited:
            name = self._name(player_id)
            if name not in self._inherited:
                return False
            self._inherited.discard(name)
        else:
            return False
        try:
            (self.directory / name).unlink()
            return True
        except FileNotFoundError:
            return False

    def count(self) -> int:
        return sum(1 for _ in self.directory.glob("snap-*.json"))


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------

def compaction_watermark(covered_lsns: Iterable[int], tip_lsn: int) -> int:
    """Highest LSN no live session will ever re-read.

    ``covered_lsns`` holds, per live session, the newest LSN its
    snapshot covers (``start_lsn - 1`` when it has none).  With no live
    sessions everything up to the durable tip is dead.
    """
    values = list(covered_lsns)
    return min(values) if values else tip_lsn


def compact_segments(directory: Union[str, Path], watermark: int) -> int:
    """Delete sealed segments fully at or below ``watermark``.

    Only a contiguous prefix is dropped (stopping at the first segment
    still needed) and the active segment is always kept, so LSNs stay
    dense across the surviving files.  Returns the number of segments
    deleted.
    """
    segments = list_segments(directory)
    if len(segments) <= 1:
        return 0
    dropped = 0
    for (seq, path), (_next_seq, next_path) in zip(segments[:-1], segments[1:]):
        next_first = segment_first_lsn(next_path)
        if next_first is None or next_first - 1 > watermark:
            break
        try:
            path.unlink()
        except OSError:  # pragma: no cover - concurrent external delete
            break
        dropped += 1
    if dropped:
        _M_COMPACTED.inc(dropped)
        _LOG.info("persist.compacted", dir=str(directory),
                  dropped=dropped, watermark=watermark)
    return dropped


def snapshot_dir_for(journal_dir: Union[str, Path]) -> Path:
    """Where a shard journal keeps its snapshots."""
    return Path(journal_dir) / SNAPSHOT_DIRNAME
