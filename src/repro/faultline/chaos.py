"""Chaos audit: soak a topology under a fault plan, kill it, audit it.

``run_chaos`` is the one harness behind ``repro chaos``, the soak tests
and the failover benches.  The plan picks the topology:

* ``single`` — a persisted :class:`SessionManager` behind a real TCP
  gateway, driven by a :class:`GatewayClient` that rides out injected
  disconnects (reconnect + resume, ``duplicate`` read as an ack lost on
  the wire).  The kill discard-shuts the gateway; the audit recovers
  every shard WAL (injected tears have already scarred the tail).
* ``replica`` (plans that fault ``repl.*``) — a primary shipping its WAL
  to one warm standby.  The primary is killed, the standby catches up,
  notices the silent heartbeats and is promoted.
* ``quorum`` (``repl-quorum-partition``) — a primary and three standbys
  with 2-of-3 quorum commit, every END waiting for its quorum ack.  One
  member is hard-killed after ``wait_for`` ENDs, mid-burst; the primary
  dies once the burst has ended on the survivors' acks.  The freshest
  survivor is promoted and the placement map advances.

Every run tells the same story:

1. **Arm** the compiled plan with metrics recording on (the caller's
   setting is restored afterwards): the timeout counters are part of
   the contract, so they must count.
2. **Soak** cohort-scripted sessions until ``wait_for`` ENDs have landed
   *and* every armed fault has fired.  How many hits a soak gives a
   site depends on group-commit batching, so once the offered sessions
   have all ended with a fault still unfired, the soak tops up with
   fresh-pid cohort sessions until the schedule is reached or a
   constant deadline passes.
3. **Kill** mid-flight (for ``quorum``, the primary; see above).
4. **Audit** the durability contract: every END digest the client saw,
   and every recovered or mirrored session, equals
   :func:`reference_digest` (an independent replay); every replica holds
   every record the dead primary made durable; the promoted log
   recovers to its mirror's states; service resumes from it; and every
   armed fault fired exactly its scheduled count.

Each breach is one typed entry in :attr:`ChaosReport.failures`
(``lost_records=3``, ``fault_unfired:wal.fsync#0``, ...), and a run is
reproduced from its plan, seed and session count.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from collections import deque
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import monotonic, perf_counter
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from ..obs import metrics as _obs
from ..persist import (
    PersistenceConfig,
    recover_shard,
    scan_journal,
    state_digest,
)
from ..persist.records import REC_FENCE, apply_scripted_op, ops_from_dicts
from ..serve import ServeConfig, SessionManager, session_factory_for_script
from ..video.player import SimulatedClock
from . import install, uninstall
from .plan import CompiledPlan, FaultPlan, builtin_plans

__all__ = [
    "ChaosReport",
    "reference_digest",
    "run_chaos",
    "run_cluster_chaos",
    "run_repl_chaos",
]

SINGLE, REPLICA, QUORUM = "single", "replica", "quorum"

#: one deadline for the soak, its top-ups, catch-up and the resume drain
DEADLINE_S = 60.0
#: heartbeat silence after which a standby counts its primary dead
HEARTBEAT_TIMEOUT_S = 0.3
_TIMEOUT_COUNTERS = (
    "repro_persist_durability_timeout_total",
    "repro_quorum_timeouts_total",
)

#: the keys each topology's report has always carried (plus ``failures``)
_KEYS = {
    SINGLE: "plan seed shards sessions submitted submit_failures "
            "completed_ends failed_ends recovered_live recovered_ended "
            "torn_records orphan_records digests_checked digest_mismatches "
            "bit_identical faults injected_total all_faults_fired "
            "durability_timeouts ok duration_s",
    REPLICA: "plan seed shards sessions submitted completed_before_kill "
             "primary_records replica_records lost_records caught_up "
             "promote_detected promoted_epochs truncated_bytes "
             "digests_checked digest_mismatches bit_identical resumed_live "
             "resumed_completed faults injected_total all_faults_fired ok "
             "duration_s",
    QUORUM: "plan seed shards standbys quorum sessions submitted "
            "completed_before_standby_kill completed_before_primary_kill "
            "standby_killed promoted primary_records survivor_records "
            "lost_records caught_up durability_timeouts quorum_timeouts "
            "promoted_epochs placement_version digests_checked "
            "digest_mismatches bit_identical queries_total queries_ok "
            "post_failover_submit_ok resumed_live resumed_completed faults "
            "injected_total all_faults_fired ok duration_s",
}


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or failed to prove)."""

    plan: str
    seed: int
    topology: str = SINGLE
    shards: int = 0
    standbys: int = 0
    quorum: int = 0
    sessions: int = 0
    submitted: int = 0
    submit_failures: int = 0
    completed_ends: int = 0
    failed_ends: int = 0
    # -- single node: the recovered WAL
    recovered_live: int = 0
    recovered_ended: int = 0
    torn_records: int = 0
    orphan_records: int = 0
    # -- replicated: the failover
    completed_before_standby_kill: int = 0
    completed_before_primary_kill: int = 0
    standby_killed: str = ""
    promoted: str = ""
    primary_records: int = 0
    survivor_records: Dict[str, int] = field(default_factory=dict)
    lost_records: int = 0
    caught_up: bool = False
    promote_detected: bool = False
    promoted_epochs: Dict[int, int] = field(default_factory=dict)
    truncated_bytes: int = 0
    placement_version: int = 0
    queries_total: int = 0
    queries_ok: int = 0
    post_failover_submit_ok: bool = False
    resumed_live: int = 0
    resumed_completed: int = 0
    # -- every topology
    digests_checked: int = 0
    digest_mismatches: List[str] = field(default_factory=list)
    faults: List[Dict[str, Any]] = field(default_factory=list)
    injected_total: int = 0
    all_faults_fired: bool = False
    durability_timeouts: int = 0
    quorum_timeouts: int = 0
    duration_s: float = 0.0
    #: typed breaches of this topology's contract; empty means ``ok``
    failures: List[str] = field(default_factory=list)

    @property
    def bit_identical(self) -> bool:
        """Every digest audited matched its reference replay."""
        return self.digests_checked > 0 and not self.digest_mismatches

    @property
    def ok(self) -> bool:
        """The gate ``repro chaos``, the soak tests and CI assert on."""
        return not self.failures

    @property
    def completed_before_kill(self) -> int:
        """The replica topology's name for completions at the kill."""
        return self.completed_before_primary_kill

    @property
    def replica_records(self) -> int:
        """The replica topology's one survivor's journal record count."""
        return sum(self.survivor_records.values())

    def breaches(self) -> List[str]:
        """This topology's ``ok`` contract, as a list of what broke."""
        out = [f"digest_mismatch:{m}" for m in self.digest_mismatches]
        gates: Dict[str, Any] = {"digests_checked_zero": not self.digests_checked}
        if self.topology == SINGLE:
            gates.update(orphan_records=self.orphan_records,
                         submit_failures=self.submit_failures)
        else:
            gates.update(
                lost_records=self.lost_records,
                not_caught_up=not self.caught_up,
                unresumed=self.resumed_live - self.resumed_completed,
            )
        if self.topology == REPLICA:
            gates.update(promote_undetected=not self.promote_detected)
        if self.topology == QUORUM:
            gates.update(
                durability_timeouts=self.durability_timeouts,
                quorum_timeouts=self.quorum_timeouts,
                failed_queries=self.queries_total - self.queries_ok,
                no_queries=not self.queries_total,
                post_failover_submit_failed=not self.post_failover_submit_ok,
            )
        out += [f"{name}={int(v)}" for name, v in gates.items() if v]
        return out + [
            f"fault_unfired:{row['site']}#{i}"
            for i, row in enumerate(self.faults)
            if row["fired"] != row["times"]
        ]

    def to_dict(self) -> Dict[str, Any]:
        doc = {key: getattr(self, key) for key in _KEYS[self.topology].split()}
        doc.update(duration_s=round(self.duration_s, 3), failures=self.failures)
        return json.loads(json.dumps(doc))  # deep copy, str epoch keys


def reference_digest(game: Any, ops: List[Any], dt: float, upto: int) -> str:
    """Replay ``ops[:upto]`` on a fresh engine; the bit-identity oracle.

    Same simulated clock and the same shared step function the serving
    layer and recovery both use — independent of the WAL entirely.
    """
    engine = game.new_engine(clock=SimulatedClock(0.0), with_video=False)
    engine.start()
    for op in ops[:upto]:
        apply_scripted_op(engine, op, dt)
    return state_digest(engine.state)


def _check(report: ChaosReport, name: str, actual: Optional[str],
           game: Any, ops: List[Any], dt: float, upto: int) -> None:
    report.digests_checked += 1
    if actual != reference_digest(game, ops, dt, upto):
        report.digest_mismatches.append(name)


def _timeout_totals() -> List[float]:
    registry = _obs.get_registry()
    return [
        metric.total() if (metric := registry.get(name)) is not None else 0.0
        for name in _TIMEOUT_COUNTERS
    ]


@contextmanager
def _armed(compiled: CompiledPlan):
    """Arm the plan with metrics on; yields the injector and a function
    diffing the timeout counters since arming.  Exit disarms (topologies
    disarm earlier themselves, before the audit) and restores the
    caller's metrics setting."""
    injector = install(compiled)
    was = _obs.enabled()
    _obs.set_enabled(True)
    before = _timeout_totals()
    try:
        yield injector, lambda: [
            int(after - b) for after, b in zip(_timeout_totals(), before)
        ]
    finally:
        uninstall()
        _obs.set_enabled(was)


#: ``submit(pid, script)`` -> admitted?
Submit = Callable[[str, Any], Any]
#: ``next_end(oldest_pending_pid)`` -> ``(pid, END digest or None if the
#: session failed)`` of the next END the topology sees
NextEnd = Callable[[str], Any]


class _Soak:
    """Offers cohort sessions and collects their ENDs."""

    def __init__(self, scripts: List[Any], sessions: int) -> None:
        self.scripts = scripts
        self.assignments: List[Tuple[str, Any]] = []
        self.sessions = sessions
        self.submitted: List[str] = []
        #: pid -> END digest of every session that completed
        self.ends: Dict[str, str] = {}
        self.failed: List[str] = []
        self.submit_failures = 0
        self.deadline = monotonic() + DEADLINE_S

    @property
    def ended(self) -> int:
        return len(self.ends) + len(self.failed)

    async def _offer(self, submit: Submit) -> None:
        k = len(self.assignments)
        script = self.scripts[k % len(self.scripts)]
        pid = f"{script.player_id}#c{k}"
        self.assignments.append((pid, script))
        if await submit(pid, script):
            self.submitted.append(pid)
        else:
            self.submit_failures += 1

    async def run(self, submit: Submit, next_end: NextEnd,
                  wait_for: int, injector: Any = None) -> None:
        """Offer every session, then collect ENDs until ``wait_for`` have
        landed and (given the ``injector``) the plan has fired, topping
        up when the offered sessions are spent first."""
        while len(self.assignments) < self.sessions:
            await self._offer(submit)
        while ((self.ended < wait_for
                or (injector is not None and not injector.all_fired()))
               and monotonic() < self.deadline):
            if self.ended == len(self.submitted):
                await self._offer(submit)
                continue
            oldest = next(p for p in self.submitted
                          if p not in self.ends and p not in self.failed)
            pid, digest = await next_end(oldest)
            if digest is None:
                self.failed.append(pid)
            else:
                self.ends[pid] = digest


async def _gateway_submit(client: Any, pid: str, script: Any) -> bool:
    """SUBMIT through injected drops: reconnect and retry."""
    from ..gateway.client import GatewayError, GatewayRejected

    for _attempt in range(4):
        try:
            await client.submit(pid, script.ops, dt=script.dt)
            return True
        except GatewayRejected:
            await asyncio.sleep(0.02)
        except GatewayError as exc:
            # "duplicate": the SUBMIT landed; only its ack died with
            # the faulted connection
            return exc.code == "duplicate"
        except (ConnectionError, OSError, asyncio.TimeoutError):
            try:
                await client.reconnect()
            except ConnectionError:
                await asyncio.sleep(0.05)
    return False


async def _gateway_end(client: Any, pid: str) -> Tuple[str, Optional[str]]:
    """``pid``'s END, riding out one injected disconnect."""
    for attempt in (0, 1):
        try:
            end = await client.wait_end(pid, timeout=DEADLINE_S)
            return pid, None if end.get("failed") else end.get("digest") or ""
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt:
                break
            try:
                await client.reconnect()
            except ConnectionError:
                break
    return pid, None


def _single(report: ChaosReport, root: Path, game: Any, soak: _Soak,
            injector: Any, wait_for: int, durable_wait_s: float,
            trace_sample: float) -> None:
    from ..gateway import GatewayServer, GatewayThread
    from ..gateway.client import GatewayClient

    persistence = PersistenceConfig(
        directory=root, group_window_s=0.004, snapshot_every=0,
    )
    manager = SessionManager(ServeConfig(
        n_shards=report.shards, tick_interval_s=0.005, max_steps_per_tick=8,
        persistence=persistence, durable_wait_s=durable_wait_s,
    ))

    async def drive(host: str, port: int) -> None:
        client = GatewayClient(host, port, request_timeout_s=DEADLINE_S,
                               trace_sample=trace_sample)
        await client.connect()
        try:
            await soak.run(partial(_gateway_submit, client),
                           partial(_gateway_end, client), wait_for, injector)
        finally:
            with suppress(ConnectionError, OSError):
                await client.close()

    handle = GatewayThread(GatewayServer(manager, game)).start()
    try:
        asyncio.run(drive(handle.host, handle.port))
    finally:
        # the kill: discard everything still in flight
        handle.stop(drain=False)
        uninstall()
    for shard in range(report.shards):
        directory = persistence.shard_dir(shard)
        if not directory.is_dir():
            continue
        recovered = recover_shard(directory, game, with_video=False,
                                  truncate=True, write_snapshots=False)
        report.recovered_live += len(recovered.sessions)
        report.recovered_ended += recovered.ended_sessions
        report.torn_records += recovered.torn_records
        report.orphan_records += recovered.orphan_records
        for rec in recovered.sessions:
            _check(report, rec.player_id, rec.digest, game,
                   rec.ops, rec.dt, rec.cursor)


def _record_keys(directory: Path) -> List[str]:
    """Canonical keys of a shard journal's payload records.

    Epoch fences are administrative (promotion writes them on the
    standby only) and excluded, so primary and promoted logs compare on
    payload alone.
    """
    if not directory.is_dir():
        return []
    return [
        json.dumps(record, sort_keys=True)
        for record in scan_journal(directory, truncate=False).records
        if record.get("t") != REC_FENCE
    ]


def _replicated(report: ChaosReport, root: Path, game: Any, soak: _Soak,
                injector: Any, wait_for: int, durable_wait_s: float) -> None:
    from ..cluster.supervisor import ClusterSupervisor
    from ..replicate import Promoter

    quorum = report.quorum
    # small batches on purpose: each APPEND is one ``repl.link`` hit,
    # and the plan's schedule must be reachable within a short soak.
    # Snapshots and compaction stay off, so the record-set audit is
    # exact: every durable record is still on disk on every side.
    sup = ClusterSupervisor(
        game, n_shards=report.shards, n_standbys=report.standbys,
        quorum=quorum, root=root, durable_wait_s=durable_wait_s,
        batch_max_records=4,
    )
    ends: Deque[Tuple[str, Optional[str]]] = deque()

    def settle(session: Any) -> None:
        ends.append((session.player_id, None if session.failed
                     else state_digest(session.engine.state)))

    async def submit(pid: str, script: Any) -> bool:
        base = session_factory_for_script(game, script)

        def build(player_id: str) -> Any:
            session = base(player_id)
            session.on_done = settle
            if quorum:  # the END rides out its own quorum ack
                session.trace_id = f"quorum-{player_id}"
            return session

        return sup.submit(pid, build)

    async def next_end(oldest: str) -> Tuple[str, Optional[str]]:
        """ENDs in completion order; past the deadline ``oldest`` fails."""
        while not ends and monotonic() < soak.deadline:
            await asyncio.sleep(0.005)
        return ends.popleft() if ends else (oldest, None)

    victim = f"standby-{report.standbys}" if quorum else ""
    try:
        sup.start()
        if quorum:
            asyncio.run(soak.run(submit, next_end, wait_for))
            report.completed_before_standby_kill = sup.manager.completed_sessions
            # the mid-burst member kill: quorum must ride the survivors
            # for the rest of the burst, and the primary dies after it
            sup.kill_standby(victim)
            report.standby_killed = victim
            wait_for = len(soak.submitted)
        asyncio.run(soak.run(submit, next_end, wait_for, injector))
        report.completed_before_primary_kill = sup.manager.completed_sessions
        # the kill: discard everything mid-flight.  Quorum survivors
        # must already hold every acked record, so shipping dies with
        # the primary; a lone standby catches up from the source first.
        sup.manager.shutdown(drain=False)
        if quorum:
            sup.source.stop()
        report.caught_up = sup.wait_caught_up(
            timeout_s=max(1.0, soak.deadline - monotonic())
        )
        sup.kill_primary()  # heartbeats go silent
        survivors = [nid for nid in sup.standbys if nid != victim]
        report.promoted = max(survivors, key=lambda nid: sum(
            st.commit_lsn for st in sup.standbys[nid].shard_states()
        ))
        report.promote_detected = Promoter(
            sup.standbys[report.promoted],
            heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S,
        ).wait_for_failure(timeout_s=HEARTBEAT_TIMEOUT_S * 20)
        promotion = sup.promote(report.promoted, wait_for_failure=False,
                                recover=True)
        uninstall()
        report.promoted_epochs = promotion.epochs
        report.truncated_bytes = sum(
            row["truncated_bytes"] for row in promotion.shards
        )

        # nothing the dead primary made durable may be missing from ANY
        # survivor (the quorum claim, member by member)
        for shard in range(report.shards):
            p_keys = _record_keys(sup.persistence.shard_dir(shard))
            report.primary_records += len(p_keys)
            for nid in survivors:
                s_keys = _record_keys(
                    sup.standbys[nid].directory / f"shard-{shard:02d}"
                )
                report.survivor_records[nid] = (
                    report.survivor_records.get(nid, 0) + len(s_keys)
                )
                report.lost_records += len(set(p_keys) - set(s_keys))

        # every surviving mirror vs an independent replay ...
        by_pid = dict(soak.assignments)
        mirror: Dict[str, str] = {}
        for nid in survivors:
            for shard_state in sup.standbys[nid].shard_states():
                for sid, sess in shard_state.sessions.items():
                    actual = state_digest(sess.engine.state)
                    if nid == report.promoted:
                        mirror[sid] = actual
                    script = by_pid.get(sid)
                    ops = (ops_from_dicts(sess.ops) if sess.ops
                           else (script.ops if script else []))
                    _check(report, f"{nid}:{sid}", actual, game,
                           ops, sess.dt, sess.cursor)
        # ... and the promoted log recovers to the promoted mirror
        for sid, digest in promotion.digests.items():
            report.digests_checked += 1
            if mirror.get(sid) != digest:
                report.digest_mismatches.append(f"recover:{sid}")

        if quorum:  # reads after the failover: placement-routed
            for pid, _script in soak.assignments:
                report.queries_total += 1
                with suppress(KeyError):
                    if sup.query(pid).get("node") in sup.standbys:
                        report.queries_ok += 1

        # writes after the failover route to the promoted node, whose
        # recovered manager must drain every survivor plus this one
        post = soak.assignments[0][1]
        post_ok = sup.submit(f"{post.player_id}#post",
                             session_factory_for_script(game, post))
        sup.manager.drain(timeout=max(1.0, soak.deadline - monotonic()))
        report.resumed_completed = sup.manager.completed_sessions
        report.resumed_live = sup.recovered_live + int(post_ok)
        report.post_failover_submit_ok = (
            post_ok and report.resumed_completed >= 1
        )
        report.placement_version = sup.placement.version
    finally:
        sup.stop()


def run_chaos(
    plan: Union[str, FaultPlan, CompiledPlan],
    *,
    seed: Optional[int] = None,
    sessions: int = 24,
    wait_for: Optional[int] = None,
    n_shards: int = 2,
    n_standbys: int = 3,
    quorum: int = 2,
    persist_dir: Optional[Union[str, Path]] = None,
    game: Any = None,
    scripts: Optional[List[Any]] = None,
    durable_wait_s: float = 5.0,
    trace_sample: float = 0.0,
) -> ChaosReport:
    """One soak-kill-recover-audit cycle under a fault plan.

    ``plan`` is a built-in plan name, a :class:`FaultPlan`, or an
    already-compiled plan; it picks the topology (module docstring).
    ``wait_for`` ENDs land before the first kill (default: half the
    sessions, a quarter for ``quorum``), so the rest die mid-flight.
    ``n_standbys`` and ``quorum`` shape the quorum topology only.
    ``trace_sample`` (single node only) is the client's trace sampling
    rate; a traced END waits up to ``durable_wait_s`` for durability.
    With ``persist_dir`` set every journal of the run (primary and each
    standby) goes under it and stays; otherwise under a temporary
    directory removed afterwards.
    """
    if isinstance(plan, str):
        plans = builtin_plans()
        if plan not in plans:
            raise ValueError(
                f"unknown plan {plan!r} (built-ins: {sorted(plans)})"
            )
        plan = plans[plan]
    compiled = plan.compile(seed) if isinstance(plan, FaultPlan) else plan
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if compiled.name == "repl-quorum-partition":
        topology = QUORUM
        if not 1 <= quorum < n_standbys:
            raise ValueError(
                "need 1 <= quorum < n_standbys (a member dies mid-run)"
            )
    elif any(a.spec.site.startswith("repl.") for a in compiled.armed):
        topology, n_standbys, quorum = REPLICA, 1, 0
    else:
        topology, n_standbys, quorum = SINGLE, 0, 0
    if wait_for is None:
        wait_for = max(1, int(sessions * (0.25 if topology == QUORUM else 0.5)))

    from ..core import fetch_quest_game
    from ..students import cohort_scripts

    t0 = perf_counter()
    if game is None:
        game = fetch_quest_game(n_quests=2, title="chaos soak").build()
    if scripts is None:
        scripts = cohort_scripts(game, min(8, sessions), seed=compiled.seed)
    report = ChaosReport(
        plan=compiled.name, seed=compiled.seed, topology=topology,
        shards=n_shards, standbys=n_standbys, quorum=quorum,
        sessions=sessions,
    )
    soak = _Soak(scripts, sessions)
    root_ctx = (
        nullcontext(persist_dir) if persist_dir is not None
        else tempfile.TemporaryDirectory(prefix="repro-chaos-")
    )
    with root_ctx as root, _armed(compiled) as (injector, timeouts):
        if topology == SINGLE:
            _single(report, Path(root), game, soak, injector, wait_for,
                    durable_wait_s, trace_sample)
        else:
            _replicated(report, Path(root), game, soak, injector,
                        wait_for, durable_wait_s)
        report.durability_timeouts, report.quorum_timeouts = timeouts()

    # every END the clients saw vs a full-script replay
    by_pid = dict(soak.assignments)
    for pid, digest in soak.ends.items():
        script = by_pid[pid]
        _check(report, pid, digest, game, script.ops, script.dt,
               len(script.ops))
    report.submitted = len(soak.submitted)
    report.submit_failures = soak.submit_failures
    report.completed_ends = len(soak.ends)
    report.failed_ends = len(soak.failed)
    report.faults = injector.report()
    report.injected_total = injector.injected_total
    report.all_faults_fired = injector.all_fired()
    report.duration_s = perf_counter() - t0
    report.failures = report.breaches()
    return report


def run_repl_chaos(plan: Union[str, FaultPlan, CompiledPlan]
                   = "repl-kill-primary", *, sessions: int = 16,
                   **kwargs: Any) -> ChaosReport:
    """Kill-the-primary audit: :func:`run_chaos` on a ``repl.*`` plan."""
    return run_chaos(plan, sessions=sessions, **kwargs)


def run_cluster_chaos(plan: Union[str, FaultPlan, CompiledPlan]
                      = "repl-quorum-partition", *, sessions: int = 12,
                      **kwargs: Any) -> ChaosReport:
    """Kill-a-quorum-member audit: :func:`run_chaos` on the quorum plan."""
    return run_chaos(plan, sessions=sessions, **kwargs)
