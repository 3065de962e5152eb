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
  load benchmark's SLO rules assert on.
* **Graceful drain.**  ``drain()`` stops admissions and waits for every
  in-flight session to finish; ``shutdown()`` stops the shard threads
  (after an optional drain) and zeroes the gauges.  With persistence
  on, every shard journal is flushed, fsynced and closed before
  ``shutdown()`` returns — draining or discarding.
* **Durability (opt-in).**  ``ServeConfig(persistence=...)`` gives each
  shard its own write-ahead journal (:mod:`repro.persist`) — no
  cross-shard locking, by construction.  Admissions log a start
  record, steps log input records (group-committed: one fsync covers a
  batch across sessions), finishes log an end record; sessions are
  snapshotted every N inputs and fully-covered WAL segments are
  compacted away.  After a crash, :meth:`SessionManager.recover`
  rebuilds every committed session bit-identically and ``start()``
  resumes stepping them.

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
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .. import faultline as _fl
from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs.attribution import get_store as _trace_store
from ..persist import (
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
    "Traced ENDs whose end record missed the durability wait "
    "(group-commit timeout or journal failure), by shard",
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
    #: retained for compatibility: drain() used to poll at this
    #: interval; it now waits on a condition variable and wakes the
    #: moment the last in-flight session closes
    drain_poll_s: float = 0.005
    #: how long a traced session's END may ride out its end record's
    #: group commit before the END is reported non-durable (counted in
    #: repro_persist_durability_timeout_total)
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
        if self.drain_poll_s <= 0:
            raise ValueError("drain_poll_s must be positive")
        if self.durable_wait_s <= 0:
            raise ValueError("durable_wait_s must be positive")

    @property
    def steps_per_second_per_shard(self) -> float:
        """Nominal stepping capacity one shard offers."""
        return self.max_steps_per_tick / self.tick_interval_s


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
        #: player id -> newest LSN a snapshot covers (start_lsn - 1
        #: before the first snapshot); drives the compaction watermark
        self._covered: Dict[str, int] = {}
        #: player id -> input records logged since the last snapshot
        self._since_snapshot: Dict[str, int] = {}
        #: sessions recovered from the WAL whose start record must not
        #: be re-logged (seeded by SessionManager.recover)
        self._recovered_ids: set = set()
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

    def seed_recovered(self, session: ServedSession, covered_lsn: int) -> None:
        """Queue a WAL-recovered session for resumption (pre-start only).

        The session's history is already durable: its start record (or
        a snapshot at ``covered_lsn``) is on disk, so admission must
        not journal it again.
        """
        sid = session.player_id
        self._recovered_ids.add(sid)
        self._covered[sid] = covered_lsn
        self._since_snapshot[sid] = 0
        with self._inbox_lock:
            self._inbox.append((sid, lambda _pid, s=session: s))

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
            barrier = self._manager._quorum_barrier
            if persistence.quorum_standbys > 0 and barrier is not None:
                require = persistence.quorum_standbys
                shard = self.index
                self._journal.set_quorum(
                    require,
                    lambda lsn, timeout: barrier(shard, lsn, require, timeout),
                )
        except Exception:
            self._journal = None
            self._snapshots = None
            _LOG.error("persist.journal_open_failed", shard=self.index,
                       dir=str(directory))

    def _close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

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

    def _maybe_snapshot(self, session: ServedSession, lsn: int) -> None:
        """Snapshot a session every ``snapshot_every`` logged inputs and
        compact away WAL segments the snapshots now fully cover."""
        persistence = self.config.persistence
        if (
            self._snapshots is None
            or persistence is None
            or persistence.snapshot_every <= 0
        ):
            return
        sid = session.player_id
        count = self._since_snapshot.get(sid, 0) + 1
        if count < persistence.snapshot_every:
            self._since_snapshot[sid] = count
            return
        self._since_snapshot[sid] = 0
        try:
            self._snapshots.write(
                sid, session.dt, session.ops, session.cursor,
                session.engine.state.to_dict(), lsn=lsn,
            )
        except OSError:  # pragma: no cover - disk death
            return
        self._covered[sid] = lsn
        if persistence.compact and self._journal is not None:
            watermark = compaction_watermark(
                self._covered.values(), self._journal.durable_lsn
            )
            compact_segments(self._journal.directory, watermark)

    def _retire_persisted(self, session: ServedSession) -> Optional[int]:
        """End-of-life bookkeeping for a finished session.

        Returns the end record's LSN (None when the journal is gone) so
        a traced session can wait out its own fsync.
        """
        sid = session.player_id
        lsn = self._journal_append(end_record(sid, session.engine.state.outcome))
        self._covered.pop(sid, None)
        self._since_snapshot.pop(sid, None)
        self._recovered_ids.discard(sid)
        if self._snapshots is not None:
            self._snapshots.remove(sid)
        return lsn

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
                session.start()
                if session.trace_id is not None:
                    # inbox residency ends here: admission -> first run
                    _trace_store().mark(session.trace_id, "queue_wait")
            except Exception:
                self.failed += 1
                _M_FAILURES.inc(shard=self.label)
                _LOG.warning("serve.session_failed", shard=self.index,
                             player=player_id, at="admit")
                self._manager._session_closed()
                continue
            if self._journal is not None and player_id not in self._recovered_ids:
                lsn = self._journal_append(
                    start_record(player_id, session.dt, session.ops)
                )
                if lsn is not None:
                    # nothing snapshotted yet: the start record itself
                    # must survive compaction
                    self._covered[player_id] = lsn - 1
                    self._since_snapshot[player_id] = 0
            self._active.append(session)

    def _step_batch(self) -> None:
        budget = self.config.max_steps_per_tick
        done_count = 0
        journal = self._journal
        while self._active and budget > 0:
            session = self._active.popleft()
            op = session.peek() if journal is not None else None
            try:
                done = session.step()
            except Exception:
                session.failed = True
                done = True
                self.failed += 1
                _M_FAILURES.inc(shard=self.label)
                _LOG.warning("serve.session_failed", shard=self.index,
                             player=session.player_id, at="step")
            if journal is not None and op is not None and not session.failed:
                lsn = self._journal_append(input_record(session.player_id, op))
                journal = self._journal  # may have died on append
                if lsn is not None and not done:
                    self._maybe_snapshot(session, lsn)
            budget -= 1
            self.steps += 1
            if done:
                trace_id = session.trace_id
                if trace_id is not None:
                    # wall residency on this shard, pacing included:
                    # that is what the client actually waited for
                    _trace_store().mark(trace_id, "shard_step")
                if not session.failed:
                    self.completed += 1
                    _M_COMPLETED.inc(shard=self.label)
                if journal is not None or self._snapshots is not None:
                    end_lsn = self._retire_persisted(session)
                    if trace_id is not None:
                        if end_lsn is not None and self._journal is not None:
                            # Traced sessions ride out their own group
                            # commit (bounded by the window), so the
                            # fsync_wait phase is measured, not modelled
                            # — and their END implies a durable end
                            # record.  A wait that comes back False
                            # (flusher timeout or journal failure)
                            # means that implication is broken: say so
                            # instead of reporting a silently
                            # non-durable END.
                            durable = self._journal.wait_durable(
                                end_lsn, timeout=self.config.durable_wait_s
                            )
                            if not durable:
                                _M_DURABILITY_TIMEOUT.inc(shard=self.label)
                                _LOG.warning(
                                    "persist.durability_timeout",
                                    shard=self.index,
                                    player=session.player_id,
                                    lsn=end_lsn,
                                    waited_s=self.config.durable_wait_s,
                                )
                                _trace_store().annotate(
                                    trace_id, durable=False
                                )
                        _trace_store().mark(trace_id, "fsync_wait")
                elif trace_id is not None:
                    # no journal: a zero-width mark keeps the phase
                    # partition exact (fsync_wait ~ 0)
                    _trace_store().mark(trace_id, "fsync_wait")
                done_count += 1
                self._manager._session_closed()
                callback = session.on_done
                if callback is not None:
                    # Fires after the final step *and* the durability
                    # bookkeeping: the session is fully settled, so a
                    # completion bridge (e.g. the network gateway) can
                    # read the engine state without racing this shard.
                    try:
                        callback(session)
                    except Exception:
                        _LOG.warning("serve.on_done_failed", shard=self.index,
                                     player=session.player_id)
            else:
                self._active.append(session)
        stepped = self.config.max_steps_per_tick - budget
        if stepped and _obs.enabled():
            _M_STEPS.inc(stepped, shard=self.label)
            if done_count:
                _LOG.debug("serve.tick", sample=0.05, shard=self.index,
                           stepped=stepped, finished=done_count)

    def _discard_backlog(self) -> None:
        """Abandon queued and active sessions (non-draining shutdown)."""
        with self._inbox_lock:
            dropped = len(self._inbox) + len(self._active)
            self._inbox.clear()
        self._active.clear()
        for _ in range(dropped):
            self._manager._session_closed()

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
        #: signalled when _inflight drops to zero; drain() waits on it
        #: instead of polling
        self._idle = threading.Condition(self._lock)
        self._inflight = 0
        self._rejected = 0
        self._accepting = False
        self._started = False
        self._stopped = False
        #: optional ``(shard_index, lsn)`` callback fired after every
        #: durable commit (see :meth:`set_replication_hook`)
        self._repl_hook: Optional[Callable[[int, int], None]] = None
        #: optional quorum-commit barrier (see :meth:`set_quorum_barrier`)
        self._quorum_barrier: Optional[
            Callable[[int, int, int, Optional[float]], bool]
        ] = None

    def set_replication_hook(
        self, hook: Optional[Callable[[int, int], None]]
    ) -> None:
        """Install a ``(shard_index, lsn)`` callback fired after each
        durable commit, on the journal's flusher thread (on the shard
        thread, inline, under ``sync_each``).

        The replication source uses it to wake its per-shard tailers the
        moment new log is on disk, so they never wait out a poll for it.
        It must be cheap and non-blocking (it delays the next group
        commit).  Set it before :meth:`start`: journals take it as they
        open; ``None`` installs nothing.
        """
        self._repl_hook = hook

    def set_quorum_barrier(
        self,
        barrier: Optional[Callable[[int, int, int, Optional[float]], bool]],
    ) -> None:
        """Install the quorum-commit barrier,
        ``(shard, lsn, require, timeout) -> bool``.

        With ``PersistenceConfig.quorum_standbys > 0`` each shard
        journal consults it from ``wait_durable`` once a record is
        locally durable: True means ``require`` standbys have mirrored
        ``lsn``.  The replication source installs its ack ledger here
        (:meth:`ReplicationSource.attach`).  Must be set before
        :meth:`start` — shard journals arm themselves when they open.
        """
        self._quorum_barrier = barrier

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
        is rebuilt bit-identically from its latest snapshot plus input
        replay, and the rebuilt sessions are queued on their owning
        shards — ``start()`` then resumes stepping them exactly where
        the crash cut them off.  Returns the per-shard recovery
        reports.

        ``session_hook`` (when given) sees every rebuilt
        :class:`ServedSession` before it is queued — the network
        gateway uses it to re-arm completion callbacks so reconnecting
        clients still receive their END frames.
        """
        if self.config.persistence is None:
            raise RuntimeError("recover() needs ServeConfig.persistence")
        if self._started:
            raise RuntimeError("recover() must run before start()")
        root = Path(self.config.persistence.directory)
        if root.is_dir():
            entries = list(root.iterdir())
            has_shards = any(
                e.is_dir() and e.name.startswith("shard-") for e in entries
            )
            if entries and not has_shards:
                # A populated directory with no shard-* journals is not
                # a persistence root the serving layer ever wrote —
                # refuse loudly rather than "recovering" zero sessions
                # from somebody else's files.
                names = sorted(e.name for e in entries)
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
                )
                if session_hook is not None:
                    session_hook(session)
                shard.seed_recovered(session, covered_lsn=report.tip_lsn)
                with self._lock:
                    self._inflight += 1
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
        """Admit one session; returns False when backpressure rejects it.

        The factory runs later, on the owning shard's thread — submit
        itself is cheap enough to call from a tight arrival loop.
        """
        with self._lock:
            if not self._accepting or self._inflight >= self.config.max_sessions:
                self._rejected += 1
                _M_REJECTED.inc()
                return False
            self._inflight += 1
        _M_ADMITTED.inc()
        self._shards[self.shard_for(player_id)].enqueue(player_id, factory)
        return True

    def _session_closed(self) -> None:
        with self._lock:
            self._inflight -= 1
            if self._inflight <= 0:
                self._idle.notify_all()

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Sessions admitted but not yet finished (queued + active)."""
        return self._inflight

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
        """Per-shard plain-data rows (CLI table / bench report)."""
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
            while self._inflight > 0:
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
