"""One served game session: an engine plus the script that drives it.

The serve layer's unit of work is a *session step* — one scripted
operation applied to one engine, followed by a simulated-clock tick.
Sessions are deliberately thread-naive: a session is owned by exactly
one shard and only its shard thread ever touches the engine, so no
locking happens on the hot path.  Everything a shard needs is behind
two calls (``start`` / ``step``) plus the ``done`` flag.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.project import CompiledGame
from ..core.solver import Move
from ..persist.records import apply_scripted_op
from ..runtime.inputs import KeyPress, MouseClick, MouseDrag
from ..students.scripts import PlayerScript, ScriptOp

#: concrete raw-input types (runtime's InputEvent is a typing alias)
_INPUT_EVENT_TYPES = (MouseClick, MouseDrag, KeyPress)

__all__ = [
    "ServedSession",
    "SessionFactory",
    "play_to_completion",
    "session_factory_for_script",
]


class ServedSession:
    """A scripted engine run advanced one op per ``step()`` call."""

    __slots__ = (
        "player_id", "engine", "ops", "dt", "steps", "failed", "_cursor",
        "_started", "on_done", "trace_id",
    )

    def __init__(
        self,
        player_id: str,
        engine,
        ops: Sequence[ScriptOp],
        dt: float = 0.25,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.player_id = player_id
        self.engine = engine
        self.ops = list(ops)
        for op in self.ops:
            if not isinstance(op, (Move,) + _INPUT_EVENT_TYPES):
                raise TypeError(f"unplayable script op {type(op).__name__}")
        self.dt = dt
        self.steps = 0
        self.failed = False
        self._cursor = 0
        self._started = False
        #: optional completion hook, invoked by the owning shard after
        #: the session's final step and retirement bookkeeping — the
        #: engine is settled and no thread will touch it again, so the
        #: callback may read state freely (the gateway bridges it onto
        #: its event loop from here)
        self.on_done: Optional[Callable[["ServedSession"], None]] = None
        #: request-trace correlation id (:mod:`repro.obs.tracing`);
        #: None for unsampled sessions, which must stay the common case
        #: — every trace hook in the shard loop is gated on it
        self.trace_id: Optional[str] = None

    @classmethod
    def resume(
        cls,
        player_id: str,
        engine,
        ops: Sequence[ScriptOp],
        dt: float,
        cursor: int,
    ) -> "ServedSession":
        """Rebuild a session recovered from the WAL: the engine is
        already started and ``cursor`` ops have already been applied."""
        session = cls(player_id, engine, ops, dt=dt)
        session._cursor = max(0, min(int(cursor), len(session.ops)))
        session._started = True
        return session

    def start(self) -> None:
        """Begin the underlying engine session (idempotent)."""
        if self._started:
            return
        self._started = True
        self.engine.start()

    @property
    def cursor(self) -> int:
        """Ops applied so far (the WAL/snapshot resume position)."""
        return self._cursor

    @property
    def done(self) -> bool:
        """Finished: script exhausted, game over, or the session failed."""
        return (
            self.failed
            or self._cursor >= len(self.ops)
            or not self.engine.running
        )

    def peek(self) -> Optional[ScriptOp]:
        """The op the next ``step()`` will apply (None when done) — what
        the serving layer writes to the WAL alongside the step."""
        if self.done:
            return None
        return self.ops[self._cursor]

    def step(self) -> bool:
        """Apply the next scripted op and tick; returns ``done``.

        Ops the real UI would have prevented (e.g. using an item the
        student never picked up) cost the step but change nothing — the
        same forgiving semantics the cohort player uses.  The actual
        op+tick semantics live in
        :func:`repro.persist.records.apply_scripted_op`, shared with
        crash-recovery replay so the two cannot drift.
        """
        if self.done:
            return True
        op = self.ops[self._cursor]
        self._cursor += 1
        apply_scripted_op(self.engine, op, self.dt)
        self.steps += 1
        return self.done


#: player_id -> ready-to-start session; the manager calls it on the
#: owning shard's thread, so engine construction cost is itself sharded.
SessionFactory = Callable[[str], ServedSession]


def session_factory_for_script(
    game: CompiledGame,
    script: PlayerScript,
    with_video: bool = False,
) -> SessionFactory:
    """Bind a game + script into a factory the manager can own.

    ``with_video=False`` (default) runs logic-only engines — the right
    trade for a server whose clients decode video themselves.
    """

    def build(player_id: str) -> ServedSession:
        engine = game.new_engine(with_video=with_video)
        return ServedSession(player_id, engine, script.ops, dt=script.dt)

    return build


def play_to_completion(session: ServedSession, max_steps: Optional[int] = None) -> int:
    """Drive one session serially to the end (tests, shard-less runs)."""
    session.start()
    budget = max_steps if max_steps is not None else len(session.ops) + 1
    while not session.done and session.steps < budget:
        session.step()
    return session.steps
