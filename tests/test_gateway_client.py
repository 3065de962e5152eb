"""Client-side tests: backoff schedule, retry loop, reconnect-resume."""

import asyncio

import pytest

from repro import obs
from repro.gateway import (
    GatewayClient,
    GatewayClosed,
    GatewayServer,
    GatewayThread,
    backoff_delays,
)
from repro.gateway.client import RETRIES
from repro.serve import ServeConfig, SessionManager
from repro.students import cohort_scripts


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=29)


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


def _slow_gateway(game):
    """Ticks slow enough that sessions outlive a client reconnect."""
    manager = SessionManager(ServeConfig(
        n_shards=2, tick_interval_s=0.05, max_steps_per_tick=1
    ))
    return GatewayServer(manager, game)


class TestBackoffSchedule:
    def test_bounded_exponential_values(self):
        assert backoff_delays(0) == []
        assert backoff_delays(4, base=0.05, factor=2.0, max_delay=2.0) == [
            0.05, 0.1, 0.2, 0.4,
        ]
        # the cap flattens the tail
        delays = backoff_delays(8, base=0.05, factor=2.0, max_delay=0.3)
        assert delays[:3] == [0.05, 0.1, 0.2]
        assert all(d == 0.3 for d in delays[3:])

    def test_factor_one_is_constant(self):
        assert backoff_delays(3, base=0.1, factor=1.0, max_delay=1.0) == [
            0.1, 0.1, 0.1,
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            backoff_delays(-1)
        with pytest.raises(ValueError):
            backoff_delays(2, base=0.0)
        with pytest.raises(ValueError):
            backoff_delays(2, factor=0.5)
        with pytest.raises(ValueError):
            backoff_delays(2, base=0.5, max_delay=0.1)


class TestRetryLoop:
    def test_exhausted_retries_follow_the_schedule(self, live):
        """Fake clock: every sleep the retry loop takes is recorded."""
        attempts = []
        slept = []

        async def failing_connector(host, port):
            attempts.append((host, port))
            raise ConnectionRefusedError("nobody home")

        async def fake_sleep(delay):
            slept.append(delay)

        client = GatewayClient(
            "gw.test", 4242, connector=failing_connector, sleep=fake_sleep,
        )
        before = _value("repro_gateway_client_retries_total")
        with pytest.raises(GatewayClosed):
            asyncio.run(client.connect())
        assert RETRIES == 4
        assert len(attempts) == RETRIES + 1  # initial + retries
        assert slept == backoff_delays(RETRIES) == [0.05, 0.1, 0.2, 0.4]
        assert _value("repro_gateway_client_retries_total") == before + RETRIES

    def test_connect_succeeds_after_transient_failures(
        self, classroom_game, scripts, live
    ):
        script = scripts[0]
        with GatewayThread(_slow_gateway(classroom_game)) as handle:
            failures = [ConnectionRefusedError("boot"), OSError("flap")]
            slept = []

            async def flaky_connector(host, port):
                if failures:
                    raise failures.pop(0)
                return await asyncio.open_connection(host, port)

            async def fake_sleep(delay):
                slept.append(delay)

            client = GatewayClient(
                handle.host, handle.port,
                connector=flaky_connector, sleep=fake_sleep,
            )

            async def drive():
                await client.connect()
                try:
                    await client.submit("retry-1", script.ops, dt=script.dt)
                    return await client.wait_end("retry-1", timeout=30.0)
                finally:
                    await client.close()

            end = asyncio.run(drive())
        assert not end["failed"]
        assert slept == backoff_delays(RETRIES)[:2]


class TestReconnectResume:
    def test_reconnect_resumes_live_session(
        self, classroom_game, scripts, live
    ):
        script = scripts[1]
        with GatewayThread(_slow_gateway(classroom_game)) as handle:
            async def drive():
                client = GatewayClient(handle.host, handle.port)
                await client.connect()
                await client.submit("res-1", script.ops, dt=script.dt)
                # drop the TCP connection; the session keeps stepping
                statuses = await client.reconnect()
                assert statuses["res-1"] == "live"
                end = await client.wait_end("res-1", timeout=30.0)
                await client.close()
                return end

            end = asyncio.run(drive())
        assert not end["failed"]
        assert end["steps"] == len(script.ops)

    def test_second_client_resumes_by_player_id(
        self, classroom_game, scripts, live
    ):
        script = scripts[2]
        with GatewayThread(_slow_gateway(classroom_game)) as handle:
            async def drive():
                first = GatewayClient(handle.host, handle.port,
                                      client_name="first")
                await first.connect()
                await first.submit("res-2", script.ops, dt=script.dt)
                await first.close()

                second = GatewayClient(handle.host, handle.port,
                                       client_name="second")
                statuses = await second.connect(resume=["res-2"])
                # live now, or done if the handoff out-raced the script
                assert statuses["res-2"] in ("live", "done")
                end = await second.wait_end("res-2", timeout=30.0)
                await second.close()
                return end

            end = asyncio.run(drive())
        assert not end["failed"]

    def test_resume_unknown_player_reports_unknown(
        self, classroom_game, live
    ):
        with GatewayThread(_slow_gateway(classroom_game)) as handle:
            async def drive():
                async with GatewayClient(handle.host, handle.port) as client:
                    statuses = await client.connect(resume=["ghost"])
                    mid = await client.resume("also-a-ghost")
                    return statuses, mid

            statuses, mid = asyncio.run(drive())
        assert statuses.get("ghost", "unknown") == "unknown"
        assert mid == "unknown"
