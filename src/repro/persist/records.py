"""WAL record payloads: the logical content of the durability log.

The physical framing (length + CRC32) lives in :mod:`repro.persist.wal`;
this module defines what goes *inside* a frame and how to get it back
out.  Four record types describe a served session's life:

============  ==========================================================
``start``     ``{"t": "start", "sid", "dt", "ops"}`` — the session
              exists: player id, pacing ``dt`` and the full scripted op
              list.  Carrying the script in the log makes recovery
              self-contained: a rebuilt session knows both where it was
              *and* what it still has to do.
``progress``  ``{"t": "progress", "c": {sid: cursor}}`` — one per shard
              tick, naming every session that advanced in the tick and
              did not finish.  The cursor counts ops applied; the ops
              themselves are already in the start record (or snapshot),
              so replaying ``ops[old:cursor]`` reproduces the state.
``input``     ``{"t": "input", "sid", "op", "c"}`` — one op *beyond*
              the logged script was applied (a live op absorbed from a
              gateway INPUT frame, which no start record holds); ``c``
              is the cursor after it.
``end``       ``{"t": "end", "sid", "out", "c"}`` — the session finished
              (script exhausted or game over) with an outcome at final
              cursor ``c``; its earlier records are dead weight for
              compaction.
============  ==========================================================

Journals written before progress records existed log one ``input``
record per step (scripted or live) and no ``c`` fields.  Every reader
(recovery, the replication standby, ``repro wal``) folds both forms
through the one :class:`SessionTable`, so an old journal still
recovers bit-identically.  Replay is bit-exact
because the engine is deterministic under a simulated clock.

Ops are either abstract solver :class:`~repro.core.solver.Move`\\ s or
raw input events (:class:`~repro.runtime.inputs.MouseClick` /
:class:`~repro.runtime.inputs.MouseDrag` /
:class:`~repro.runtime.inputs.KeyPress`); both directions of the codec
are total over exactly that set.  :func:`apply_scripted_op` is the
single definition of step semantics shared by the serving layer and
recovery replay — if one changes, the other cannot drift.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set

from ..core.solver import Move, _apply
from ..runtime.inputs import KeyPress, MouseClick, MouseDrag
from ..runtime.state import GameState

__all__ = [
    "PersistError",
    "REC_END",
    "REC_FENCE",
    "REC_INPUT",
    "REC_PROGRESS",
    "REC_START",
    "SessionEntry",
    "SessionTable",
    "WalLayoutError",
    "apply_scripted_op",
    "end_record",
    "fence_record",
    "input_record",
    "op_from_dict",
    "op_to_dict",
    "ops_from_dicts",
    "ops_to_dicts",
    "progress_record",
    "start_record",
    "state_digest",
]

REC_START = "start"
REC_INPUT = "input"
REC_END = "end"
REC_PROGRESS = "progress"
#: epoch fence: everything after this record belongs to a new primary
#: (appended by replication failover; carries no session id on purpose)
REC_FENCE = "fence"


class PersistError(RuntimeError):
    """Raised on invalid persistence operations or unreadable journals."""


class WalLayoutError(PersistError):
    """A directory offered as a WAL is not one.

    Raised *before* any scan or replay when a journal directory exists
    but holds a foreign or empty layout (no ``wal-*.log`` segments, or a
    persistence root with no ``shard-*`` directories) — the caller
    almost certainly pointed recovery at the wrong path, and a clear
    error beats failing deep inside the record fold."""


# ----------------------------------------------------------------------
# Op codec
# ----------------------------------------------------------------------

def op_to_dict(op: Any) -> Dict[str, Any]:
    """Serialise one scripted op to a JSON-safe dict."""
    if isinstance(op, Move):
        return {
            "k": "move",
            "kind": op.kind,
            "object_id": op.object_id,
            "item_id": op.item_id,
            "path": list(op.dialogue_path),
        }
    if isinstance(op, MouseClick):
        return {"k": "click", "x": op.x, "y": op.y, "button": op.button}
    if isinstance(op, MouseDrag):
        return {"k": "drag", "x0": op.x0, "y0": op.y0, "x1": op.x1, "y1": op.y1}
    if isinstance(op, KeyPress):
        return {"k": "key", "key": op.key}
    raise PersistError(f"unloggable script op {type(op).__name__}")


def op_from_dict(d: Dict[str, Any]) -> Any:
    """Inverse of :func:`op_to_dict`."""
    k = d.get("k")
    if k == "move":
        return Move(
            kind=d["kind"],
            object_id=d.get("object_id"),
            item_id=d.get("item_id"),
            dialogue_path=tuple(d.get("path", ())),
        )
    if k == "click":
        return MouseClick(d["x"], d["y"], button=d.get("button", "left"))
    if k == "drag":
        return MouseDrag(d["x0"], d["y0"], d["x1"], d["y1"])
    if k == "key":
        return KeyPress(d["key"])
    raise PersistError(f"unknown op kind {k!r}")


def ops_to_dicts(ops: Sequence[Any]) -> List[Dict[str, Any]]:
    return [op_to_dict(op) for op in ops]


def ops_from_dicts(dicts: Sequence[Dict[str, Any]]) -> List[Any]:
    return [op_from_dict(d) for d in dicts]


# ----------------------------------------------------------------------
# Record constructors (the ``lsn`` field is stamped by the journal)
# ----------------------------------------------------------------------

def start_record(player_id: str, dt: float, ops: Sequence[Any]) -> Dict[str, Any]:
    return {"t": REC_START, "sid": player_id, "dt": dt, "ops": ops_to_dicts(ops)}


def input_record(
    player_id: str, op: Any, cursor: Optional[int] = None
) -> Dict[str, Any]:
    """A live op; ``cursor=None`` writes the old one-record-per-step form."""
    record = {"t": REC_INPUT, "sid": player_id, "op": op_to_dict(op)}
    if cursor is not None:
        record["c"] = cursor
    return record


def progress_record(cursors: Dict[str, int]) -> Dict[str, Any]:
    return {"t": REC_PROGRESS, "c": cursors}


def end_record(
    player_id: str, outcome: Optional[str], cursor: Optional[int] = None
) -> Dict[str, Any]:
    record = {"t": REC_END, "sid": player_id, "out": outcome}
    if cursor is not None:
        record["c"] = cursor
    return record


def fence_record(epoch: int) -> Dict[str, Any]:
    """Epoch fence appended at promotion: records after it were written
    by the new primary; an old primary at a lower epoch is rejected."""
    if epoch < 1:
        raise PersistError("epoch must be >= 1")
    return {"t": REC_FENCE, "epoch": int(epoch)}


# ----------------------------------------------------------------------
# The session fold (shared by recovery, the standby and ``repro wal``)
# ----------------------------------------------------------------------

@dataclass(slots=True)
class SessionEntry:
    """One session as snapshots and the log describe it."""

    dt: float = 0.25
    #: the logged script, extended by live ops past its end
    ops: List[Dict[str, Any]] = field(default_factory=list)
    #: ops applied: the snapshot's cursor plus every folded advance
    cursor: int = 0
    #: advances at or below this LSN are already in ``state`` (a
    #: session born from its start record covers everything before it)
    covered_lsn: int = 0
    ended: bool = False
    outcome: Optional[str] = None
    #: snapshot state the engine is built from; None once it is built
    state: Optional[Dict[str, Any]] = None
    #: op dicts folded but not yet applied to ``engine``
    replay: List[Dict[str, Any]] = field(default_factory=list)
    #: the rebuilt engine; the fold itself never builds one
    engine: Any = None
    from_snapshot: bool = False


class SessionTable(Dict[str, SessionEntry]):
    """The one fold of snapshots and WAL records into session state.

    Keyed by player id.  :meth:`load_snapshot` seeds a session from a
    snapshot; :meth:`fold` takes the log in LSN order: ``start``
    registers a session (unless a snapshot already carries it; past an
    ended session's covered LSN it begins that id's next session),
    ``progress``, ``input`` and ``end`` past its covered LSN advance
    its cursor and queue the ops in between on ``replay``, ``end``
    retires it.  Records at or below the covered LSN are skipped.  Old
    journals' one-``input``-per-step form folds the same way.  An epoch ``fence`` is shard-wide and only raises
    :attr:`epoch`.  A record naming no known session (or no session
    at all) and a record of unknown kind count as orphans.  Building
    engines is the caller's: recovery builds each live one once,
    the standby brings the :attr:`touched` ones up to date per batch.
    """

    def __init__(self) -> None:
        super().__init__()
        self.orphans = 0
        #: the highest epoch fence folded
        self.epoch = 0
        #: ids whose ``state`` or ``replay`` changed since last cleared
        self.touched: Set[str] = set()

    @classmethod
    def from_log(
        cls,
        snapshots: Iterable[Dict[str, Any]],
        records: Iterable[Dict[str, Any]],
    ) -> "SessionTable":
        """Snapshot documents first, then the log's records in order."""
        table = cls()
        for doc in snapshots:
            table.load_snapshot(doc)
        for record in records:
            table.fold(record)
        return table

    def load_snapshot(self, doc: Dict[str, Any]) -> str:
        """Seed (or reset) one session from a snapshot document; raises
        ``KeyError``/``TypeError``/``ValueError`` on a malformed one."""
        sid = str(doc["sid"])
        self[sid] = SessionEntry(
            dt=float(doc.get("dt", 0.25)),
            ops=list(doc.get("ops", [])),
            cursor=int(doc.get("cursor", 0)),
            covered_lsn=int(doc.get("lsn", 0)),
            state=doc["state"],
            from_snapshot=True,
        )
        self.touched.add(sid)
        return sid

    def fold(self, record: Dict[str, Any]) -> int:
        """Fold one record in; returns the orphans it held."""
        kind = record.get("t")
        lsn = int(record.get("n", 0))
        if kind == REC_FENCE:
            self.epoch = max(self.epoch, int(record.get("epoch", 0)))
            return 0
        if kind == REC_START:
            sid = record.get("sid")
            if sid is None:
                return self._orphans(1)
            entry = self.get(sid)
            # a later start of an ended id is that id's next session
            if entry is None or (entry.ended and lsn > entry.covered_lsn):
                self[sid] = SessionEntry(
                    dt=float(record.get("dt", 0.25)),
                    ops=list(record.get("ops", [])),
                    covered_lsn=lsn - 1,
                )
                self.touched.add(sid)
            return 0
        # (sid, cursor after the record, op): the cursor is None for an
        # old-form input (one step) or end (no step)
        if kind == REC_PROGRESS:
            advances = [(sid, int(c), None) for sid, c in record["c"].items()]
        elif kind in (REC_INPUT, REC_END):
            c = record.get("c")
            op = record.get("op", {}) if kind == REC_INPUT else None
            advances = [(record.get("sid"), None if c is None else int(c), op)]
        else:
            return self._orphans(1)
        orphans = 0
        for sid, target, op in advances:
            entry = self.get(sid)
            if entry is None:
                orphans += 1
                continue
            if lsn <= entry.covered_lsn:
                # already in the snapshot state, or the end of an
                # earlier session under this id
                continue
            if kind == REC_END:
                entry.ended = True
                entry.outcome = record.get("out")
            steps = _steps_to(entry.ops, entry.cursor, target, op)
            entry.replay.extend(steps)
            entry.cursor += len(steps)
            self.touched.add(sid)
        return self._orphans(orphans)

    def _orphans(self, n: int) -> int:
        self.orphans += n
        return n


def _steps_to(
    ops: List[Dict[str, Any]],
    cursor: int,
    target: Optional[int],
    op: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """Op dicts that take a session from ``cursor`` to ``target``.

    Scripted steps come from ``ops``, the logged script.  An ``input``
    record's ``op`` is the last step; when it lies past the script it is
    appended to ``ops``, so later cursors resolve against it.
    """
    if op is None:
        return [] if target is None else ops[cursor:target]
    at = cursor if target is None else target - 1
    steps = ops[cursor:at]
    if at >= len(ops):
        ops.append(op)
    steps.append(op)
    return steps


# ----------------------------------------------------------------------
# Shared step semantics + state digest
# ----------------------------------------------------------------------

def apply_scripted_op(engine: Any, op: Any, dt: float) -> None:
    """Apply one scripted op to an engine and tick ``dt``.

    Ops the real UI would have prevented (using an item never picked
    up, clicking a hidden object) change nothing — matching the
    forgiving semantics of the cohort player.  An op that raises also
    skips its tick, exactly as :class:`~repro.serve.session.ServedSession`
    does; recovery replay uses this same function so the two cannot
    diverge.
    """
    try:
        if isinstance(op, Move):
            _apply(engine, op)
        else:
            engine.handle_input(op)
        engine.tick(dt)
    except Exception:
        pass


def state_digest(state: "GameState | Dict[str, Any]") -> str:
    """Canonical SHA-256 over a game state (bit-identical-recovery check)."""
    d = state.to_dict() if isinstance(state, GameState) else state
    payload = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
