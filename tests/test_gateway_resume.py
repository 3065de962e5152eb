"""Kill-and-reconnect through the gateway: resumed sessions are
bit-identical to an uninterrupted run.

The acceptance scenario for the durable network edge: a persisted
gateway dies mid-session (discard shutdown — the orderly half of a
crash), a fresh process recovers the WAL, re-arms the gateway's
completion callbacks, and a reconnecting client resumes by player id.
The END digest each resumed session reports must equal the digest of
the same script played start-to-finish with no crash at all.
"""

import asyncio
import time

import pytest

from repro.gateway import GatewayClient, GatewayServer, GatewayThread
from repro.persist import PersistenceConfig, state_digest
from repro.persist.records import apply_scripted_op
from repro.serve import ServeConfig, SessionManager
from repro.students import cohort_scripts


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=37)


def _config(tmp_path):
    return ServeConfig(
        n_shards=2,
        tick_interval_s=0.02,
        max_steps_per_tick=1,
        persistence=PersistenceConfig(
            directory=tmp_path, snapshot_every=3, group_window_s=0.001
        ),
    )


def _reference_digest(game, script):
    """The same script played to the end with no crash anywhere."""
    engine = game.new_engine(with_video=False)
    engine.start()
    for op in script.ops:
        apply_scripted_op(engine, op, script.dt)
    return state_digest(engine.state)


def test_kill_and_reconnect_resumes_bit_identical(
    tmp_path, classroom_game, scripts
):
    config = _config(tmp_path)
    pids = [f"crash-{i}" for i in range(len(scripts))]

    # Phase 1: submit a cohort over TCP, then kill the gateway
    # mid-flight (drain=False discards live sessions; their committed
    # steps are already on disk).
    server1 = GatewayServer(SessionManager(config), classroom_game)
    handle1 = GatewayThread(server1).start()
    try:
        async def submit_all():
            async with GatewayClient(handle1.host, handle1.port) as client:
                for pid, script in zip(pids, scripts):
                    ack = await client.submit(pid, script.ops, dt=script.dt)
                    assert ack["status"] == "admitted"

        asyncio.run(submit_all())
        time.sleep(0.15)  # a few committed steps, nobody near the end
        in_flight = server1.manager.in_flight
    finally:
        handle1.stop(drain=False)
    assert in_flight > 0, "every session finished before the kill"

    # Phase 2: a fresh process recovers the WAL behind a new gateway.
    server2 = GatewayServer(SessionManager(config), classroom_game)
    reports = server2.recover()
    recovered = [s for r in reports for s in r.sessions]
    assert recovered, "expected in-flight sessions to recover from the WAL"
    handle2 = GatewayThread(server2).start()
    try:
        async def resume_all():
            client = GatewayClient(handle2.host, handle2.port,
                                   client_name="survivor")
            statuses = await client.connect(resume=pids)
            ends = {}
            for pid in pids:
                if statuses.get(pid) == "unknown":
                    continue  # finished-and-retired before the kill
                ends[pid] = await client.wait_end(pid, timeout=60.0)
            await client.close()
            return statuses, ends

        statuses, ends = asyncio.run(resume_all())
    finally:
        handle2.stop(drain=True)

    resumed_pids = {s.player_id for s in recovered}
    assert resumed_pids <= set(pids)
    for pid in resumed_pids:
        assert statuses[pid] in ("live", "done")
    assert ends, "no resumed session delivered an END frame"
    for pid, end in ends.items():
        script = scripts[pids.index(pid)]
        assert not end["failed"], f"{pid} failed after recovery"
        assert end["digest"] == _reference_digest(classroom_game, script), (
            f"{pid} diverged from the uninterrupted reference run"
        )


def test_trace_id_survives_kill_and_reconnect(
    tmp_path, classroom_game, scripts
):
    """Request traces re-attach across crash recovery.

    Phase 1 stamps every submission with a trace id; the gateway dies
    mid-flight.  Phase 2 simulates a fresh process (``obs.reset()``
    empties the trace store), recovers the WAL, and the reconnecting
    client offers its remembered trace ids in the resume HELLO.  The
    resumed sessions must finish *under the original ids*, with their
    remaining phases re-attributed to the recovered process.
    """
    from repro import obs

    was = obs.enabled()
    obs.enable()
    obs.reset()
    try:
        config = _config(tmp_path)
        pids = [f"trace-crash-{i}" for i in range(len(scripts))]

        server1 = GatewayServer(SessionManager(config), classroom_game)
        handle1 = GatewayThread(server1).start()
        try:
            async def submit_all():
                client = GatewayClient(handle1.host, handle1.port,
                                       trace_sample=1.0)
                await client.connect()
                tids = {}
                for pid, script in zip(pids, scripts):
                    await client.submit(pid, script.ops, dt=script.dt)
                    tids[pid] = client.trace_for(pid)
                await client.close()
                return tids

            trace_map = asyncio.run(submit_all())
            time.sleep(0.15)
        finally:
            handle1.stop(drain=False)
        assert all(trace_map.values()), "submissions were not trace-stamped"

        # Fresh process: the old process's trace store dies with it.
        obs.reset()

        server2 = GatewayServer(SessionManager(config), classroom_game)
        reports = server2.recover()
        recovered = {s.player_id for r in reports for s in r.sessions}
        if not recovered:
            pytest.skip("every session finished before the kill")
        handle2 = GatewayThread(server2).start()
        try:
            async def resume_all():
                client = GatewayClient(handle2.host, handle2.port,
                                       client_name="trace-survivor")
                statuses = await client.connect(
                    resume=pids, traces=trace_map,
                )
                ends = {}
                for pid in pids:
                    if statuses.get(pid) in ("live", "done"):
                        ends[pid] = await client.wait_end(pid, timeout=60.0)
                await client.close()
                return ends

            ends = asyncio.run(resume_all())
        finally:
            handle2.stop(drain=True)

        store = obs.get_tracer()
        checked = 0
        for pid in recovered:
            end = ends.get(pid)
            if end is None or end.get("failed"):
                continue
            # the END frame carries the *original* trace id
            assert end.get("trace") == trace_map[pid], (
                f"{pid} finished under a different trace id after recovery"
            )
            timeline = store.get(trace_map[pid])
            assert timeline is not None
            assert timeline["status"] == "ok"
            assert timeline["attributes"].get("resumed") is True
            phases = {p["phase"] for p in timeline["phases"]}
            # the post-crash phases were re-attributed under the old id
            assert "shard_step" in phases
            assert "flush" in phases
            checked += 1
        assert checked, "no resumed session finished with its trace attached"
    finally:
        obs.reset()
        obs.set_enabled(was)


def test_recovered_session_rejects_live_input(
    tmp_path, classroom_game, scripts
):
    """Recovered sessions replay a fixed script: INPUT gets a clean error."""
    from repro.gateway import GatewayError

    config = _config(tmp_path)
    script = scripts[0]
    server1 = GatewayServer(SessionManager(config), classroom_game)
    handle1 = GatewayThread(server1).start()
    try:
        async def submit_one():
            async with GatewayClient(handle1.host, handle1.port) as client:
                await client.submit("fixed-1", script.ops, dt=script.dt)

        asyncio.run(submit_one())
        time.sleep(0.1)
    finally:
        handle1.stop(drain=False)

    server2 = GatewayServer(SessionManager(config), classroom_game)
    reports = server2.recover()
    if not any(r.sessions for r in reports):
        pytest.skip("session finished before the kill; nothing recovered")
    handle2 = GatewayThread(server2).start()
    try:
        async def drive():
            async with GatewayClient(handle2.host, handle2.port) as client:
                status = await client.resume("fixed-1")
                if status != "live":
                    return None
                try:
                    await client.send_input("fixed-1", script.ops[0])
                except GatewayError as exc:
                    return exc.code
                return "accepted"

        code = asyncio.run(drive())
    finally:
        handle2.stop(drain=True)
    # None: the session ended between resume and input (benign race)
    assert code in (None, "not_interactive", "finished")
