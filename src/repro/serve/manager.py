"""Sharded multi-session game server: thousands of engines, N threads.

The paper's runtime plays one student at a time; a deployment serves a
school district.  The :class:`SessionManager` turns the single-player
engine into a multi-tenant server with a classic game-server shape:

* **Sharding.**  Sessions are hash-partitioned by player id across N
  worker shards (stable CRC32, *not* Python's salted ``hash()``, so a
  player lands on the same shard across processes and restarts).  Each
  shard owns its sessions exclusively — engines are never shared across
  threads, so session stepping takes no locks.
* **Batched tick scheduling.**  Each shard runs a paced tick loop: per
  tick it admits up to ``max_admissions_per_tick`` queued sessions and
  advances up to ``max_steps_per_tick`` session steps round-robin, then
  sleeps out the remainder of ``tick_interval_s``.  Capacity is
  therefore *per shard by construction* — adding shards adds throughput
  — and per-session progress stays fair under overload.
* **Admission control.**  A global in-flight cap (``max_sessions``)
  rejects new work instead of queueing unboundedly; rejected admissions
  are counted, queue depth and active sessions are exported as gauges,
  and per-shard tick latency is a labelled histogram — the numbers the
  serve SLO rules in ``examples/slo.toml`` assert on.
* **Graceful drain.**  ``drain()`` stops admissions and waits for every
  in-flight session to finish; ``shutdown()`` stops the shard threads
  (after an optional drain) and zeroes the gauges.  With persistence
  on, every shard journal is flushed, fsynced and closed before
  ``shutdown()`` returns — draining or discarding.
* **Durability (opt-in).**  ``ServeConfig(persistence=...)`` gives each
  shard its own write-ahead journal (:mod:`repro.persist`) — no
  cross-shard locking, by construction.  Admissions log a start
  record carrying the whole script; each tick logs one progress record
  with the new cursor of every session that advanced (ops beyond the
  logged script, absorbed from gateway INPUT frames, log an input
  record of their own); finishes log an end record with the final
  cursor.  Group commit makes one fsync cover a batch across sessions;
  sessions are snapshotted every N applied ops and fully-covered WAL
  segments are compacted away.  A finished session's END (its
  ``on_done``) is parked until its end record is durable — and, under
  quorum commit, mirrored by the standby quorum.  Each shard's gate
  thread (:class:`~repro.persist.DurableGate`) makes that wait and
  fires ``on_done``, so no shard thread waits on an fsync.
  After a crash,
  :meth:`SessionManager.recover` rebuilds every committed session
  bit-identically and ``start()`` resumes stepping them.

The manager is a context manager::

    with SessionManager(ServeConfig(n_shards=4)) as mgr:
        mgr.submit("alice", factory)
        ...
        mgr.drain()
"""

from __future__ import annotations

import functools
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from .. import faultline as _fl
from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.tracing import get_tracer as _tracer
from ..persist import (
    DurableGate,
    Journal,
    PersistenceConfig,
    PersistError,
    ShardRecovery,
    SnapshotStore,
    WalLayoutError,
    compact_segments,
    compaction_watermark,
    end_record,
    input_record,
    list_shard_dirs,
    progress_record,
    recover_shard,
    snapshot_dir_for,
    start_record,
)
from .session import ServedSession, SessionFactory

__all__ = ["ServeConfig", "SessionManager", "shard_for"]

_M_TICK = _obs.histogram(
    "repro_serve_tick_seconds",
    "Busy time of one shard tick (admissions + session steps), by shard",
)
_M_ACTIVE = _obs.gauge(
    "repro_serve_active_sessions",
    "Sessions currently being stepped, by shard",
)
_M_QUEUE = _obs.gauge(
    "repro_serve_queue_depth",
    "Admitted sessions waiting for their shard to pick them up, by shard",
)
_M_ADMITTED = _obs.counter(
    "repro_serve_admitted_total",
    "Sessions accepted by admission control",
)
_M_REJECTED = _obs.counter(
    "repro_serve_rejected_total",
    "Sessions rejected by admission control (backpressure)",
)
_M_COMPLETED = _obs.counter(
    "repro_serve_completed_total",
    "Sessions run to completion, by shard",
)
_M_FAILURES = _obs.counter(
    "repro_serve_session_failures_total",
    "Sessions whose factory or step raised, by shard",
)
_M_STEPS = _obs.counter(
    "repro_serve_steps_total",
    "Session steps executed across all shards, by shard",
)
_M_DURABILITY_TIMEOUT = _obs.counter(
    "repro_persist_durability_timeout_total",
    "ENDs sent before their end record was covered "
    "(durable-wait timeout or journal failure), by shard",
)
_M_QUORUM_WAIT = _obs.histogram(
    "repro_quorum_wait_seconds",
    "Extra wait for standby quorum after local durability, per END",
)
_M_QUORUM_TIMEOUT = _obs.counter(
    "repro_quorum_timeouts_total",
    "ENDs whose end record was durable locally but never reached "
    "standby quorum, by shard",
)

_LOG = _obslog.get_logger("serve")


def shard_for(player_id: str, n_shards: int) -> int:
    """Stable hash partition: the same player always lands on the same
    shard, across processes and Python hash-seed randomisation."""
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    return zlib.crc32(player_id.encode("utf-8")) % n_shards


@dataclass(frozen=True, slots=True)
class ServeConfig:
    """Knobs of the serving layer (all per-shard unless noted)."""

    n_shards: int = 2
    #: global cap on in-flight (queued + active) sessions; admissions
    #: beyond it are rejected, not queued (backpressure, not buffering)
    max_sessions: int = 10_000
    #: shard tick pacing — each shard wakes this often
    tick_interval_s: float = 0.01
    #: session-step budget per shard per tick (the batch size)
    max_steps_per_tick: int = 20
    #: new sessions started per shard per tick (engine construction is
    #: paid here; bounding it keeps tick latency flat under a burst)
    max_admissions_per_tick: int = 32
    #: how long a finished session's END may wait for its end record to
    #: be covered (durable here, and mirrored by the standby quorum when
    #: one is armed) before it is sent anyway and counted non-durable in
    #: repro_persist_durability_timeout_total
    durable_wait_s: float = 5.0
    #: durability: when set, every shard owns a write-ahead journal
    #: under ``persistence.shard_dir(i)`` and the manager becomes
    #: crash-recoverable via :meth:`SessionManager.recover`
    persistence: Optional[PersistenceConfig] = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.tick_interval_s <= 0:
            raise ValueError("tick_interval_s must be positive")
        if self.max_steps_per_tick < 1:
            raise ValueError("max_steps_per_tick must be >= 1")
        if self.max_admissions_per_tick < 1:
            raise ValueError("max_admissions_per_tick must be >= 1")
        if self.durable_wait_s <= 0:
            raise ValueError("durable_wait_s must be positive")


class _Shard:
    """One worker: an inbox of admitted sessions and a paced tick loop."""

    def __init__(self, index: int, config: ServeConfig, manager: "SessionManager") -> None:
        self.index = index
        self.label = str(index)
        self.config = config
        self._manager = manager
        self._inbox: Deque[Tuple[str, SessionFactory]] = deque()
        self._inbox_lock = threading.Lock()
        self._active: Deque[ServedSession] = deque()
        self._stop = threading.Event()
        self._discard = threading.Event()
        self.completed = 0
        self.failed = 0
        self.ticks = 0
        self.steps = 0
        #: durability (None when persistence is off or the journal died)
        self._journal: Optional[Journal] = None
        self._snapshots: Optional[SnapshotStore] = None
        #: holds each finished session's END until its end record is
        #: covered (None when persistence is off or the journal never
        #: opened)
        self._gate: Optional[DurableGate] = None
        self._thread = threading.Thread(
            target=self._run, name=f"repro-serve-shard-{index}", daemon=True
        )

    # -- called from the manager (any thread) --------------------------
    def start(self) -> None:
        self._thread.start()

    def enqueue(self, player_id: str, factory: SessionFactory) -> None:
        with self._inbox_lock:
            self._inbox.append((player_id, factory))

    def request_stop(self, discard: bool = False) -> None:
        if discard:
            self._discard.set()
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> None:
        if self._thread.is_alive():
            self._thread.join(timeout)

    @property
    def queue_depth(self) -> int:
        return len(self._inbox)

    @property
    def active_count(self) -> int:
        return len(self._active)

    # -- shard thread: durability hooks --------------------------------
    def _open_journal(self) -> None:
        persistence = self.config.persistence
        if persistence is None:
            return
        directory = persistence.shard_dir(self.index)
        try:
            hook = self._manager._repl_hook
            self._journal = Journal(
                directory, persistence, label=self.label,
                on_durable=functools.partial(hook, self.index) if hook else None,
            )
            self._snapshots = SnapshotStore(snapshot_dir_for(directory))
        except Exception:
            self._journal = None
            self._snapshots = None
            _LOG.error("persist.journal_open_failed", shard=self.index,
                       dir=str(directory))
            return
        quorum_wait = None
        if self._manager._quorum_wait is not None and persistence.quorum_standbys:
            quorum_wait = self._wait_quorum
        self._gate = DurableGate(
            self._journal, self._release, self.config.durable_wait_s,
            quorum_wait=quorum_wait, name=f"repro-serve-release-{self.index}",
        )

    def _wait_quorum(self, lsn: int, timeout: float) -> bool:
        """Gate thread: wait, after local durability, for the standby
        quorum to mirror ``lsn``; a miss is counted as a quorum timeout."""
        require = self.config.persistence.quorum_standbys
        t0 = monotonic()
        acked = self._manager._quorum_wait(self.index, lsn, require, timeout)
        if acked:
            if _obs.enabled():
                _M_QUORUM_WAIT.observe(monotonic() - t0)
        else:
            _M_QUORUM_TIMEOUT.inc(shard=self.label)
            _LOG.warning("persist.quorum_timeout", shard=self.index,
                         lsn=lsn, require=require,
                         waited_s=monotonic() - t0)
        return acked

    def _release(self, session: ServedSession, lsn: Optional[int] = None,
                 durable: bool = True) -> None:
        """The END goes out (on the gate's thread when it was parked):
        close the trace's fsync_wait phase, count the session out of
        flight (its player id is free again) and fire ``on_done``.  A
        non-durable END is counted and logged as a durability timeout.

        The session's snapshot is deleted only here, once its end record
        is durable: until then a crash must still find the snapshot, as
        compaction may have removed the start record it covers.  That is
        done before the player id is freed, so a re-submitted session
        cannot write a snapshot that this removal would delete."""
        trace_id = session.trace_id
        if durable and self._snapshots is not None:
            self._snapshots.remove(session.player_id)
        if not durable:
            _M_DURABILITY_TIMEOUT.inc(shard=self.label)
            _LOG.warning("persist.durability_timeout", shard=self.index,
                         player=session.player_id, lsn=lsn)
            if trace_id is not None:
                _tracer().annotate(trace_id, durable=False)
        if trace_id is not None:
            _tracer().mark(trace_id, "fsync_wait")
        self._manager._session_closed(session.player_id)
        callback = session.on_done
        if callback is not None:
            # The session has left the shard: a completion bridge (e.g.
            # the network gateway) reads its engine state unraced.
            try:
                callback(session)
            except Exception:
                _LOG.warning("serve.on_done_failed", shard=self.index,
                             player=session.player_id)

    def _close_journal(self) -> None:
        """Close the journal, then the gate: the final commit covers
        every END still parked, so each goes out before this returns."""
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._gate is not None:
            self._gate.close()
            self._gate = None

    def _journal_append(self, record: Dict) -> Optional[int]:
        """Append one record; a dead journal disables persistence for
        this shard (serving keeps going — durability is best-effort
        once the disk has failed, and the failure is counted)."""
        if self._journal is None:
            return None
        try:
            lsn = self._journal.append(record)
        except PersistError:
            self._journal = None
            _LOG.error("persist.journal_lost", shard=self.index)
            return None
        return lsn

    def _log_progress(self, advanced: Dict[str, ServedSession]) -> None:
        """End of tick: one progress record for every session that
        advanced and is still running, then any snapshots it is due."""
        lsn = self._journal_append(
            progress_record({sid: s.cursor for sid, s in advanced.items()})
        )
        if lsn is not None:
            for session in advanced.values():
                self._maybe_snapshot(session, lsn)

    def _maybe_snapshot(self, session: ServedSession, lsn: int) -> None:
        """Snapshot a session every ``snapshot_every`` applied ops and
        compact away WAL segments the snapshots now fully cover."""
        persistence = self.config.persistence
        if (
            self._snapshots is None
            or persistence is None
            or persistence.snapshot_every <= 0
        ):
            return
        if session.cursor - session.snapshot_cursor < persistence.snapshot_every:
            return
        session.snapshot_cursor = session.cursor
        try:
            self._snapshots.write(
                session.player_id, session.dt, session.ops, session.cursor,
                session.engine.state.to_dict(), lsn=lsn,
            )
        except OSError:  # pragma: no cover - disk death
            return
        session.covered_lsn = lsn
        if persistence.compact and self._journal is not None:
            watermark = compaction_watermark(
                (s.covered_lsn for s in self._active
                 if s.covered_lsn is not None),
                self._journal.durable_lsn,
            )
            compact_segments(self._journal.directory, watermark)

    def _finish(self, session: ServedSession) -> None:
        """End-of-life bookkeeping for a finished session: log its end
        record and park its END until that record is covered.  Without
        persistence the END goes out now; with a journal that is gone
        it goes out now too, counted non-durable."""
        lsn = self._journal_append(end_record(
            session.player_id, session.engine.state.outcome, session.cursor
        ))
        if lsn is None:
            self._release(session, durable=self.config.persistence is None)
        else:
            self._gate.park(lsn, session)

    # -- shard thread --------------------------------------------------
    def _admit(self) -> None:
        if _fl.ACTIVE:
            action = _fl.fire("serve.admit", shard=self.label)
            if action is not None and action.kind == "skip":
                # queue-pressure spike: arrivals keep queueing, nothing
                # starts this tick
                return
        for _ in range(self.config.max_admissions_per_tick):
            with self._inbox_lock:
                if not self._inbox:
                    return
                player_id, factory = self._inbox.popleft()
            try:
                session = factory(player_id)
                if session.trace_id is None:
                    session.start()
                else:
                    # the engine's start (its ENTER bindings) nests
                    # under the request root, with its records
                    with _tracer().child(session.trace_id, "shard.admit"):
                        session.start()
                    # inbox residency ends here: admission -> first run
                    _tracer().mark(session.trace_id, "queue_wait")
            except Exception:
                self.failed += 1
                _M_FAILURES.inc(shard=self.label)
                _LOG.warning("serve.session_failed", shard=self.index,
                             player=player_id, at="admit")
                self._manager._session_closed(player_id)
                continue
            if self._journal is not None:
                lsn = self._journal_append(
                    start_record(player_id, session.dt, session.ops)
                )
                if lsn is not None:
                    # nothing snapshotted yet: the start record itself
                    # must survive compaction
                    session.covered_lsn = lsn - 1
                    session.snapshot_cursor = session.cursor
                    session.logged_ops = len(session.ops)
            self._active.append(session)

    def _step_one(self, session: ServedSession,
                  advanced: Dict[str, ServedSession]) -> bool:
        """Advance one session one op; True once it is done.

        A scripted op is already in the start record, so the step only
        adds the session to ``advanced``, the sessions this tick's
        progress record carries; a live op past the logged script is
        journalled with the op itself.
        """
        before = session.cursor
        try:
            done = session.step()
        except Exception:
            session.failed = True
            done = True
            self.failed += 1
            _M_FAILURES.inc(shard=self.label)
            _LOG.warning("serve.session_failed", shard=self.index,
                         player=session.player_id, at="step")
        if (
            self._journal is not None
            and not session.failed
            and session.cursor > before
        ):
            sid = session.player_id
            if before >= session.logged_ops:
                self._journal_append(
                    input_record(sid, session.ops[before], session.cursor)
                )
            advanced[sid] = session
        return done

    def _step_batch(self) -> None:
        budget = self.config.max_steps_per_tick
        done_count = 0
        # sessions that advanced this tick and are still running
        advanced: Dict[str, ServedSession] = {}
        while self._active and budget > 0:
            session = self._active.popleft()
            trace_id = session.trace_id
            if trace_id is None:
                done = self._step_one(session, advanced)
            else:
                # the step and its WAL append nest under the request
                # root, with the spans opened inside them
                with _tracer().child(trace_id, "shard.step"):
                    done = self._step_one(session, advanced)
            budget -= 1
            self.steps += 1
            if done:
                if trace_id is not None:
                    # wall residency on this shard, pacing included:
                    # that is what the client actually waited for
                    _tracer().mark(trace_id, "shard_step")
                if not session.failed:
                    self.completed += 1
                    _M_COMPLETED.inc(shard=self.label)
                done_count += 1
                advanced.pop(session.player_id, None)
                self._finish(session)
            else:
                self._active.append(session)
        if advanced:
            self._log_progress(advanced)
        stepped = self.config.max_steps_per_tick - budget
        if stepped and _obs.enabled():
            _M_STEPS.inc(stepped, shard=self.label)
            if done_count:
                _LOG.debug("serve.tick", sample=0.05, shard=self.index,
                           stepped=stepped, finished=done_count)

    def _discard_backlog(self) -> None:
        """Abandon queued, active and parked sessions (non-draining
        shutdown) and free their player ids."""
        with self._inbox_lock:
            dropped = [player_id for player_id, _ in self._inbox]
            self._inbox.clear()
        dropped += [s.player_id for s in self._active]
        self._active.clear()
        if self._gate is not None:
            dropped += [s.player_id for s in self._gate.close(discard=True)]
            self._gate = None
        self._manager._session_closed(*dropped)

    def _run(self) -> None:
        interval = self.config.tick_interval_s
        self._open_journal()
        try:
            while True:
                if self._discard.is_set():
                    self._discard_backlog()
                    break
                t0 = perf_counter()
                if _fl.ACTIVE:
                    action = _fl.fire("serve.tick", shard=self.label)
                    if action is not None and action.seconds > 0:
                        # a stalled shard thread: the stall lands inside
                        # the tick's busy time, so it shows up in the
                        # repro_serve_tick_seconds histogram
                        sleep(action.seconds)
                self._admit()
                self._step_batch()
                busy = perf_counter() - t0
                self.ticks += 1
                if _obs.enabled():
                    _M_TICK.observe(busy, shard=self.label)
                    _M_ACTIVE.set(len(self._active), shard=self.label)
                    _M_QUEUE.set(len(self._inbox), shard=self.label)
                if self._stop.is_set() and not self._active and not self._inbox:
                    break
                remaining = interval - busy
                if remaining > 0:
                    if self._stop.is_set():
                        # Already stopping: keep the paced sleep so the
                        # remaining backlog drains at tick rate instead
                        # of a busy spin.
                        sleep(remaining)
                    else:
                        # Idle pacing doubles as the stop wakeup: a
                        # stop (or discard) request interrupts the wait
                        # instead of riding out the rest of the tick.
                        self._stop.wait(remaining)
        finally:
            # Flush-on-exit: close() drains the group-commit queue and
            # fsyncs, so shutdown(drain=True) — which joins this thread
            # — returns only once every shard journal is durable.  The
            # discard path closes the journal just as cleanly: the
            # backlog is dropped, the log is not torn.
            self._close_journal()
        if _obs.enabled():
            _M_ACTIVE.set(0, shard=self.label)
            _M_QUEUE.set(0, shard=self.label)


class SessionManager:
    """Owns the shards; the only public door into the serving layer."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self._shards: List[_Shard] = [
            _Shard(i, self.config, self) for i in range(self.config.n_shards)
        ]
        self._lock = threading.Lock()
        #: signalled when _live empties; drain() waits on it instead of
        #: polling
        self._idle = threading.Condition(self._lock)
        #: player ids submitted or recovered whose END is not released
        #: yet (the sessions in flight); submit() refuses a second
        #: session under any of them
        self._live: Set[str] = set()
        self._rejected = 0
        self._accepting = False
        self._started = False
        self._stopped = False
        #: optional ``(shard_index, lsn)`` callback fired after every
        #: durable commit, and the ack ledger's quorum wait (see
        #: :meth:`set_replication_hook`)
        self._repl_hook: Optional[Callable[[int, int], None]] = None
        self._quorum_wait: Optional[Callable[..., bool]] = None

    def set_replication_hook(
        self,
        hook: Optional[Callable[[int, int], None]],
        quorum_wait: Optional[Callable[[int, int, int, float], bool]] = None,
    ) -> None:
        """Install a ``(shard_index, lsn)`` callback fired after each
        durable commit, on the journal's flusher thread (on the shard
        thread, inline, under ``sync_each``).

        The replication source uses it to wake its per-shard tailers the
        moment new log is on disk, so they never wait out a poll for it.
        It must be cheap and non-blocking (it delays the next group
        commit).  Set it before :meth:`start`: journals take it as they
        open; ``None`` installs nothing.

        ``quorum_wait(shard, lsn, require, timeout_s) -> bool`` is the
        ack ledger's blocking wait.  With it set and
        ``PersistenceConfig.quorum_standbys > 0``, a finished session's
        END also waits until ``quorum_standbys`` standbys mirrored its
        end record.  Each shard's gate thread makes that wait and fires
        ``on_done``; no shard, flusher or ack thread does either.
        """
        self._repl_hook = hook
        self._quorum_wait = quorum_wait

    # ------------------------------------------------------------------
    def start(self) -> "SessionManager":
        """Spawn the shard threads and open admissions."""
        if self._started:
            raise RuntimeError("manager already started")
        self._started = True
        self._accepting = True
        for shard in self._shards:
            shard.start()
        if _obs.enabled():
            _LOG.info("serve.start", shards=self.config.n_shards,
                      max_sessions=self.config.max_sessions)
        return self

    def __enter__(self) -> "SessionManager":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown(drain=not any(exc))

    # ------------------------------------------------------------------
    def recover(
        self,
        game,
        with_video: bool = False,
        session_hook: Optional[Callable[[ServedSession], None]] = None,
    ) -> List[ShardRecovery]:
        """Rebuild the previous process's committed sessions from disk.

        Call between construction and :meth:`start` on a manager whose
        config carries the same ``persistence`` directory the crashed
        process used.  Each shard's journal is scanned (torn tails
        truncated and counted), every committed-but-unfinished session
        is rebuilt bit-identically from its latest snapshot plus log
        replay, and the rebuilt sessions join their owning shards'
        active sets — started and already durable, they skip admission,
        and ``start()`` resumes stepping them exactly where the crash
        cut them off.  Returns the per-shard recovery reports.

        ``session_hook`` (when given) sees every rebuilt
        :class:`ServedSession` before it is seeded — the network
        gateway uses it to re-arm completion callbacks so reconnecting
        clients still receive their END frames.
        """
        if self.config.persistence is None:
            raise RuntimeError("recover() needs ServeConfig.persistence")
        if self._started:
            raise RuntimeError("recover() must run before start()")
        root = Path(self.config.persistence.directory)
        if root.is_dir() and not list_shard_dirs(root):
            names = sorted(e.name for e in root.iterdir())
            if names:
                # A populated directory with no shard-* journals is not
                # a persistence root the serving layer ever wrote —
                # refuse loudly rather than "recovering" zero sessions
                # from somebody else's files.
                raise WalLayoutError(
                    f"{root} is not a persistence root: no shard-* "
                    f"journal directories, found {names[:5]}"
                )
        reports: List[ShardRecovery] = []
        for shard in self._shards:
            directory = self.config.persistence.shard_dir(shard.index)
            if not directory.is_dir():
                reports.append(ShardRecovery(directory=directory))
                continue
            report = recover_shard(directory, game, with_video=with_video)
            for recovered in report.sessions:
                session = ServedSession.resume(
                    recovered.player_id,
                    recovered.engine,
                    recovered.ops,
                    recovered.dt,
                    recovered.cursor,
                    covered_lsn=report.tip_lsn,
                )
                if session_hook is not None:
                    session_hook(session)
                # its covered LSN pins compaction from here on
                shard._active.append(session)
                with self._lock:
                    self._live.add(session.player_id)
            reports.append(report)
        if _obs.enabled():
            _LOG.info(
                "serve.recovered",
                sessions=sum(len(r.sessions) for r in reports),
                ended=sum(r.ended_sessions for r in reports),
                torn=sum(r.torn_records for r in reports),
            )
        return reports

    # ------------------------------------------------------------------
    def shard_for(self, player_id: str) -> int:
        """Which shard owns ``player_id`` (stable across restarts)."""
        return shard_for(player_id, self.config.n_shards)

    def submit(self, player_id: str, factory: SessionFactory) -> bool:
        """Admit one session; returns False when backpressure rejects it
        or ``player_id`` is still in flight here (submitted or recovered,
        and its END not yet released): two live sessions under one id
        would share one journal history.

        The factory runs later, on the owning shard's thread — submit
        itself is cheap enough to call from a tight arrival loop.
        """
        with self._lock:
            if player_id in self._live:
                return False
            if not self._accepting or len(self._live) >= self.config.max_sessions:
                self._rejected += 1
                _M_REJECTED.inc()
                return False
            self._live.add(player_id)
        _M_ADMITTED.inc()
        self._shards[self.shard_for(player_id)].enqueue(player_id, factory)
        return True

    def _session_closed(self, *player_ids: str) -> None:
        """These sessions left flight: their player ids are free again."""
        with self._lock:
            self._live.difference_update(player_ids)
            if not self._live:
                self._idle.notify_all()

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Sessions admitted but not yet finished (queued + active)."""
        return len(self._live)

    @property
    def completed_sessions(self) -> int:
        return sum(s.completed for s in self._shards)

    @property
    def failed_sessions(self) -> int:
        return sum(s.failed for s in self._shards)

    @property
    def rejected_sessions(self) -> int:
        return self._rejected

    @property
    def active_by_shard(self) -> Dict[int, int]:
        return {s.index: s.active_count for s in self._shards}

    @property
    def completed_by_shard(self) -> Dict[int, int]:
        return {s.index: s.completed for s in self._shards}

    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-shard counters as plain-data rows."""
        return [
            {
                "shard": s.index,
                "completed": s.completed,
                "failed": s.failed,
                "steps": s.steps,
                "ticks": s.ticks,
                "active": s.active_count,
                "queued": s.queue_depth,
            }
            for s in self._shards
        ]

    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admissions; wait for in-flight work. True when empty.

        Event-driven: the wait wakes the instant the last in-flight
        session closes (each close notifies the condition once the
        count hits zero), not on the next tick of a poll loop.
        """
        deadline = None if timeout is None else monotonic() + timeout
        with self._idle:
            self._accepting = False
            while self._live:
                if deadline is None:
                    self._idle.wait()
                else:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        return False
                    self._idle.wait(remaining)
            return True

    def shutdown(self, drain: bool = True, timeout: Optional[float] = 30.0) -> bool:
        """Stop the shards (optionally draining first); idempotent.

        ``drain=False`` means *discard* the backlog — queued and active
        sessions are dropped, not ground down during the join.
        """
        if self._stopped:
            return True
        if not self._started:
            drained = True  # nothing ever ran, nothing to discard
        elif drain:
            drained = self.drain(timeout=timeout)
        else:
            drained = False
        with self._lock:
            self._accepting = False
        for shard in self._shards:
            # A failed (timed-out) drain still discards, so the shard
            # threads exit instead of grinding through a dead backlog.
            shard.request_stop(discard=not drained)
        for shard in self._shards:
            shard.join(timeout=timeout)
        self._stopped = True
        if _obs.enabled():
            _LOG.info("serve.shutdown", drained=drained,
                      completed=self.completed_sessions,
                      failed=self.failed_sessions,
                      rejected=self._rejected)
        return drained
