"""Loopback tests for the asyncio gateway server."""

import asyncio
import socket
import time

import pytest

from repro import obs
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    GatewayError,
    GatewayRejected,
    GatewayServer,
    GatewayThread,
)
from repro.gateway.protocol import HELLO, PING, STATE, encode_frame
from repro.gateway.server import _Connection
from repro.persist import PersistenceConfig, scan_journal, state_digest
from repro.persist.records import apply_scripted_op
from repro.serve import ServeConfig, SessionManager
from repro.students import cohort_scripts


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=23)


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


def _value(name, **labels):
    metric = obs.get_registry().get(name)
    assert metric is not None, f"metric {name} not registered"
    return metric.value(**labels)


def _gateway(game, **serve_kwargs):
    serve_kwargs.setdefault("n_shards", 2)
    serve_kwargs.setdefault("tick_interval_s", 0.002)
    serve_kwargs.setdefault("max_steps_per_tick", 50)
    manager = SessionManager(ServeConfig(**serve_kwargs))
    return GatewayServer(manager, game)


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _reference_digest(game, script):
    engine = game.new_engine(with_video=False)
    engine.start()
    for op in script.ops:
        apply_scripted_op(engine, op, script.dt)
    return state_digest(engine.state)


class TestEndToEnd:
    def test_submit_runs_to_end_with_reference_digest(
        self, classroom_game, scripts, live
    ):
        script = scripts[0]
        with GatewayThread(_gateway(classroom_game)) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    assert client.server_info["shards"] == 2
                    ack = await client.submit("e2e-1", script.ops, dt=script.dt)
                    assert ack["status"] == "admitted"
                    assert ack["shard"] == handle.server.manager.shard_for("e2e-1")
                    rtt = await client.ping()
                    assert rtt > 0
                    return await client.wait_end("e2e-1", timeout=30.0)

            end = asyncio.run(drive())
        assert end["player"] == "e2e-1"
        assert not end["failed"]
        assert end["steps"] == len(script.ops)
        assert end["digest"] == _reference_digest(classroom_game, script)

    def test_input_frame_is_queued_on_live_session(
        self, classroom_game, scripts, live
    ):
        # Slow ticks keep the session live long enough to accept input.
        script = scripts[1]
        gw = _gateway(classroom_game, tick_interval_s=0.05,
                      max_steps_per_tick=1)
        with GatewayThread(gw) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    await client.submit("inp-1", script.ops, dt=script.dt)
                    ack = await client.send_input("inp-1", script.ops[0])
                    assert ack["status"] == "queued"
                    with pytest.raises(GatewayError) as err:
                        await client.send_input("nobody", script.ops[0])
                    assert err.value.code == "unknown_player"
                    return await client.wait_end("inp-1", timeout=30.0)

            end = asyncio.run(drive())
        assert not end["failed"]

    def test_unexpected_frame_type_gets_machine_error(
        self, classroom_game, live
    ):
        with GatewayThread(_gateway(classroom_game)) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    with pytest.raises(GatewayError) as err:
                        await client._request(STATE, {"player": "x"})
                    return err.value.code

            assert asyncio.run(drive()) == "unexpected_frame"


class TestAdmission:
    def test_rejection_surfaces_as_error_frame(
        self, classroom_game, scripts, live
    ):
        before = _value("repro_gateway_rejected_total")
        gw = _gateway(classroom_game, max_sessions=1,
                      tick_interval_s=0.05, max_steps_per_tick=1)
        script = scripts[0]
        with GatewayThread(gw) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    await client.submit("adm-1", script.ops, dt=script.dt)
                    with pytest.raises(GatewayRejected) as err:
                        await client.submit("adm-2", script.ops, dt=script.dt)
                    assert err.value.code == "rejected"
                    # the first session is untouched by the rejection
                    end = await client.wait_end("adm-1", timeout=30.0)
                    assert not end["failed"]

            asyncio.run(drive())
        assert _value("repro_gateway_rejected_total") == before + 1

    def test_duplicate_live_player_refused(self, classroom_game, scripts, live):
        gw = _gateway(classroom_game, tick_interval_s=0.05,
                      max_steps_per_tick=1)
        script = scripts[0]
        with GatewayThread(gw) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    await client.submit("dup-1", script.ops, dt=script.dt)
                    with pytest.raises(GatewayError) as err:
                        await client.submit("dup-1", script.ops, dt=script.dt)
                    assert err.value.code == "duplicate"
                    await client.wait_end("dup-1", timeout=30.0)

            asyncio.run(drive())


class TestRobustness:
    def test_garbage_bytes_drop_connection_not_server(
        self, classroom_game, scripts, live
    ):
        before = _value("repro_gateway_protocol_errors_total")
        with GatewayThread(_gateway(classroom_game)) as handle:
            with socket.create_connection((handle.host, handle.port)) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
                # the server answers with an ERROR frame, then EOF
                reply = b""
                sock.settimeout(5.0)
                try:
                    while True:
                        chunk = sock.recv(4096)
                        if not chunk:
                            break
                        reply += chunk
                except TimeoutError:
                    pass
            assert reply, "expected an ERROR frame before the close"
            assert _wait_until(
                lambda: _value("repro_gateway_protocol_errors_total")
                == before + 1
            )

            # a well-behaved client still gets served afterwards
            script = scripts[0]

            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    await client.submit("after-garbage", script.ops,
                                        dt=script.dt)
                    return await client.wait_end("after-garbage", timeout=30.0)

            assert not asyncio.run(drive())["failed"]

    def test_mid_handshake_disconnect_is_counted_not_fatal(
        self, classroom_game, live
    ):
        before = _value("repro_gateway_disconnects_total", reason="truncated")
        with GatewayThread(_gateway(classroom_game)) as handle:
            frame = encode_frame(HELLO, {"client": "quitter", "resume": []})
            with socket.create_connection((handle.host, handle.port)) as sock:
                sock.sendall(frame[: len(frame) // 2])
            assert _wait_until(
                lambda: _value(
                    "repro_gateway_disconnects_total", reason="truncated"
                ) == before + 1
            )

            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    return client.server_info["server"]

            assert asyncio.run(drive()) == "repro-gateway"

    def test_first_frame_must_be_hello(self, classroom_game, live):
        with GatewayThread(_gateway(classroom_game)) as handle:
            with socket.create_connection((handle.host, handle.port)) as sock:
                sock.sendall(encode_frame(PING, {}))
                sock.settimeout(5.0)
                reply = sock.recv(4096)
            assert reply, "expected an ERROR frame for HELLO-less PING"

    def test_slow_reader_overflow_drops_connection(self, classroom_game, live):
        """Unit-level: a full outbound queue aborts with a counted reason."""
        before = _value("repro_gateway_slow_reader_drops_total")
        server = _gateway(classroom_game)
        server.config = GatewayConfig(outbound_queue_frames=1)

        class _DeadWriter:
            def get_extra_info(self, name):
                return ("stalled", 0)

            def close(self):
                pass

        async def drive():
            conn = _Connection(server, reader=None, writer=_DeadWriter())
            assert conn.send(PING, {"n": 1})  # fills the queue
            assert not conn.send(PING, {"n": 2})  # overflow: dropped
            return conn

        conn = asyncio.run(drive())
        assert conn.closed
        assert conn.close_reason == "slow_reader"
        assert _value("repro_gateway_slow_reader_drops_total") == before + 1
        # further sends are no-ops on a dead connection
        assert not conn.send(PING, {"n": 3})


class TestDrain:
    def test_graceful_drain_flushes_shard_journals(
        self, tmp_path, classroom_game, scripts, live
    ):
        persistence = PersistenceConfig(
            directory=tmp_path, snapshot_every=4, group_window_s=0.001
        )
        gw = _gateway(classroom_game, persistence=persistence)
        handle = GatewayThread(gw).start()
        try:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    for i, script in enumerate(scripts):
                        await client.submit(f"drain-{i}", script.ops,
                                            dt=script.dt)
                    for i in range(len(scripts)):
                        end = await client.wait_end(f"drain-{i}", timeout=30.0)
                        assert not end["failed"]

            asyncio.run(drive())
        finally:
            assert handle.stop(drain=True)
        reports = [
            scan_journal(persistence.shard_dir(i))
            for i in range(2)
            if persistence.shard_dir(i).is_dir()
        ]
        assert reports, "drain left no shard journals behind"
        assert sum(len(r.records) for r in reports) > 0
        assert all(r.torn_records == 0 for r in reports)


class TestConnectionPlayers:
    def test_finished_players_leave_the_connection(
        self, classroom_game, scripts, live
    ):
        # A long-lived connection must not accumulate every session it
        # ever carried: a player leaves once its END frame is queued,
        # so per-SUBMIT cost and memory stay flat.
        n, batch = 2000, 100
        gw = _gateway(classroom_game, max_steps_per_tick=1000)
        with GatewayThread(gw) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    (conn,) = handle.server._connections
                    peak = 0
                    for lo in range(0, n, batch):
                        pids = [f"churn-{i}" for i in range(lo, lo + batch)]
                        await asyncio.gather(*(
                            client.submit(pid, scripts[i % len(scripts)].ops,
                                          dt=scripts[i % len(scripts)].dt)
                            for i, pid in enumerate(pids)
                        ))
                        peak = max(peak, len(conn.players))
                        ends = await asyncio.gather(*(
                            client.wait_end(pid, timeout=30.0) for pid in pids
                        ))
                        assert not any(end["failed"] for end in ends)
                    return peak, len(conn.players)

            peak, left = asyncio.run(drive())
        assert peak <= batch
        assert left == 0
