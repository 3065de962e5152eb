"""Every persisted END waits for its own end record's durability.

A finished session's END is parked until the journal's group commit
covers its end record and, under quorum commit, until the standby
quorum has acked it.  Whether the request carries a trace id, whether
obs recording is on, and whether a client reuses a trace id must not
matter.  These tests stall every fsync through faultline and compare
each END's arrival time with the time its end record became durable.
"""

import asyncio
import threading
import time
import uuid

import pytest

from repro import faultline, obs
from repro.cluster import ClusterSupervisor
from repro.faultline.plan import FaultPlan, FaultSpec
from repro.gateway import GatewayClient, GatewayServer, GatewayThread
from repro.persist import PersistenceConfig, scan_journal
from repro.persist.records import REC_END
from repro.persist.wal import Journal
from repro.replicate.source import ReplicationSource
from repro.serve import ServeConfig, SessionManager, session_factory_for_script
from repro.students import cohort_scripts

N_SHARDS = 2
#: every fsync blocks this long, so a non-durable END would arrive
#: about this much earlier than its end record's group commit
STALL_S = 0.1
STALL_EVERY_FSYNC = FaultPlan(name="stall-every-fsync", specs=(
    FaultSpec("wal.fsync", "stall", at=1, times=100_000, seconds=STALL_S),
))


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=23)


@pytest.fixture(autouse=True)
def restore_obs():
    was = obs.enabled()
    yield
    faultline.uninstall()
    obs.set_enabled(was)


@pytest.fixture
def commits(monkeypatch):
    """``(journal label, durable LSN, time)`` of every group commit,
    stamped before the journal publishes the new watermark."""
    seen = []
    committed = Journal._committed

    def record(self, lsn, records, since):
        seen.append((self.label, lsn, time.monotonic()))
        committed(self, lsn, records, since)

    monkeypatch.setattr(Journal, "_committed", record)
    return seen


def _end_lsns(persistence):
    """player id -> (shard, LSN of its end record)."""
    out = {}
    for shard in range(N_SHARDS):
        journal = scan_journal(persistence.shard_dir(shard), truncate=False)
        for record in journal.records:
            if record.get("t") == REC_END:
                out[record["sid"]] = (shard, record["n"])
    return out


def _first_covering(events, shard, lsn):
    """Time of the first ``(shard, lsn, time)`` event covering ``lsn``
    (infinity when none did)."""
    return min(
        (t for s, covered, t in events if s == shard and covered >= lsn),
        default=float("inf"),
    )


def _serve_under_stall(root, game, scripts, submissions):
    """Submit ``(player, trace id or None)`` pairs over one connection
    while every fsync stalls; returns END arrival times and the
    persistence config."""
    persistence = PersistenceConfig(directory=root, snapshot_every=0)
    manager = SessionManager(ServeConfig(
        n_shards=N_SHARDS, tick_interval_s=0.002, max_steps_per_tick=50,
        persistence=persistence,
    ))
    arrived = {}

    async def drive(host, port):
        async with GatewayClient(host, port, request_timeout_s=30.0) as client:
            for k, (pid, trace) in enumerate(submissions):
                script = scripts[k % len(scripts)]
                await client.submit(pid, script.ops, dt=script.dt, trace=trace)

            async def end(pid):
                await client.wait_end(pid, timeout=30.0)
                arrived[pid] = time.monotonic()

            await asyncio.gather(*(end(pid) for pid, _ in submissions))

    faultline.install(STALL_EVERY_FSYNC)
    try:
        with GatewayThread(GatewayServer(manager, game)) as handle:
            asyncio.run(drive(handle.host, handle.port))
    finally:
        faultline.uninstall()
    return arrived, persistence


def _assert_ends_durable(arrived, persistence, commits):
    end_lsns = _end_lsns(persistence)
    assert set(arrived) <= set(end_lsns)
    events = [(int(label), lsn, t) for label, lsn, t in commits]
    early = {
        pid: round(_first_covering(events, *end_lsns[pid]) - t, 3)
        for pid, t in arrived.items()
        if t < _first_covering(events, *end_lsns[pid])
    }
    assert not early, f"ENDs that beat their end record's fsync (s): {early}"


@pytest.mark.parametrize("recording", [True, False], ids=["obs-on", "obs-off"])
def test_no_end_reaches_the_client_before_its_end_record_is_durable(
    tmp_path, classroom_game, scripts, commits, recording
):
    obs.set_enabled(recording)
    run = uuid.uuid4().hex[:8]
    # odd players carry a client trace id, even ones none; with obs off
    # the gateway drops the ids, so every session runs untraced
    submissions = [
        (f"p{k}", f"{run}{k:08x}" if k % 2 else None) for k in range(6)
    ]
    arrived, persistence = _serve_under_stall(
        tmp_path, classroom_game, scripts, submissions
    )
    assert len(arrived) == len(submissions)
    _assert_ends_durable(arrived, persistence, commits)


def test_a_reused_trace_id_does_not_make_an_end_lossy(
    tmp_path, classroom_game, scripts, commits
):
    # The gateway refuses to open a second trace under a live id, so
    # the second session runs untraced: its END must still wait.
    obs.set_enabled(True)
    trace = uuid.uuid4().hex[:16]
    submissions = [("first", trace), ("second", trace)]
    arrived, persistence = _serve_under_stall(
        tmp_path, classroom_game, scripts, submissions
    )
    assert set(arrived) == {"first", "second"}
    _assert_ends_durable(arrived, persistence, commits)


def test_quorum_end_waits_for_the_standby_ack(
    tmp_path, classroom_game, scripts, monkeypatch
):
    acks = []
    record_ack = ReplicationSource.record_ack

    def spy(self, shard, client, lsn):
        acks.append((shard, lsn, time.monotonic()))
        record_ack(self, shard, client, lsn)

    monkeypatch.setattr(ReplicationSource, "record_ack", spy)
    done = {}
    with ClusterSupervisor(
        classroom_game, n_shards=N_SHARDS, n_standbys=1, quorum=1,
        root=tmp_path,
    ) as supervisor:
        deadline = time.monotonic() + 10.0
        while len(supervisor.source.subscriptions()) < 1:
            assert time.monotonic() < deadline, "standby never subscribed"
            time.sleep(0.005)
        for k, script in enumerate(scripts):
            base = session_factory_for_script(classroom_game, script)

            def factory(pid, base=base):
                session = base(pid)  # a plain session: no trace id
                session.on_done = lambda s: done.setdefault(
                    s.player_id, time.monotonic()
                )
                return session

            assert supervisor.submit(f"q{k}", factory)
        assert supervisor.manager.drain(timeout=30.0)
    # read once the primary's journals are closed
    end_lsns = _end_lsns(supervisor.persistence)
    assert set(done) == {f"q{k}" for k in range(len(scripts))}
    for pid, t in done.items():
        assert t >= _first_covering(acks, *end_lsns[pid]), (
            f"{pid}: on_done fired before the standby acked its end record"
        )


def _total(name):
    metric = obs.get_registry().get(name)
    return metric.total() if metric is not None else 0.0


def test_end_short_of_quorum_is_released_at_the_wait_budget(
    classroom_game, scripts
):
    # The only standby dies before the session starts: its end record
    # becomes durable locally but never reaches quorum.  The END still
    # goes out once durable_wait_s has passed, counted both ways.
    obs.set_enabled(True)
    before = (_total("repro_quorum_timeouts_total"),
              _total("repro_persist_durability_timeout_total"))
    done = threading.Event()
    with ClusterSupervisor(
        classroom_game, n_shards=1, n_standbys=1, quorum=1,
        durable_wait_s=0.3,
    ) as supervisor:
        deadline = time.monotonic() + 10.0
        while len(supervisor.source.subscriptions()) < 1:
            assert time.monotonic() < deadline, "standby never subscribed"
            time.sleep(0.005)
        supervisor.kill_standby("standby-1")
        base = session_factory_for_script(classroom_game, scripts[0])

        def factory(pid):
            session = base(pid)
            session.on_done = lambda _s: done.set()
            return session

        t0 = time.monotonic()
        assert supervisor.submit("orphaned", factory)
        assert done.wait(10.0), "END never released"
        assert time.monotonic() - t0 >= 0.3
    assert _total("repro_quorum_timeouts_total") == before[0] + 1
    assert _total("repro_persist_durability_timeout_total") == before[1] + 1


def test_a_dead_journal_releases_parked_ends_at_once(
    tmp_path, classroom_game, scripts
):
    # Every group commit fails, so the journal dies under the first
    # batch; no END may wait out the (long) durable-wait budget for a
    # commit that will never come.  None may count as durable either,
    # including the END of a session admitted once the journal was
    # gone, whose end record never reached the log at all.
    obs.set_enabled(True)
    before = _total("repro_persist_durability_timeout_total")
    faultline.install(FaultPlan(name="fsync-dies", specs=(
        FaultSpec("wal.fsync", "error", at=2, times=100),
    )))
    base = session_factory_for_script(classroom_game, scripts[0])
    done = {"doomed": threading.Event(), "late": threading.Event()}

    def factory(pid):
        session = base(pid)
        session.on_done = lambda _s: done[pid].set()
        return session

    manager = SessionManager(ServeConfig(
        n_shards=1, tick_interval_s=0.002, durable_wait_s=30.0,
        persistence=PersistenceConfig(directory=tmp_path),
    )).start()
    try:
        assert manager.submit("doomed", factory)
        assert done["doomed"].wait(5.0), "END waited on a dead journal"
        assert manager.submit("late", factory)
        assert done["late"].wait(5.0), "END waited on a dead journal"
        assert manager.drain(timeout=5.0)
    finally:
        manager.shutdown(drain=False)
    assert _total("repro_persist_durability_timeout_total") == before + 2
