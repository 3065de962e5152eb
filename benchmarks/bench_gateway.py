"""Gateway bench: request-trace attribution through real TCP sockets.

Runs traced sessions through a loopback ``repro.gateway`` server and
checks that each request's phase timeline, fetched over the live
telemetry endpoint, accounts for the latency the client observed.
"""

from conftest import save_result
from repro import obs
from repro.core import fetch_quest_game
from repro.students import cohort_scripts


def test_trace_attribution_accounts_for_client_latency(results_dir, tmp_path):
    """Acceptance: phase breakdowns explain client-observed latency.

    Runs traced sessions against a persisted gateway with slow ticks
    (so end-to-end latency is tens of milliseconds and loopback transit
    is noise), fetches each request's timeline over the live
    ``/trace/<id>`` telemetry endpoint, and requires the phase
    durations (accept + queue wait + shard step + fsync wait + flush)
    to sum to within 10% of the latency the *client* measured between
    SUBMIT and END.  The rendered waterfalls are saved as the
    ``trace_waterfall.txt`` CI artifact.
    """
    import asyncio
    import json
    import time
    import urllib.request

    from repro.gateway import GatewayConfig, GatewayServer, GatewayThread
    from repro.gateway.client import GatewayClient
    from repro.persist import PersistenceConfig
    from repro.reporting import render_waterfall
    from repro.serve import ServeConfig, SessionManager

    obs.enable()
    game = fetch_quest_game(n_quests=2, title="trace acceptance").build()
    scripts = cohort_scripts(game, 4, seed=31)
    manager = SessionManager(ServeConfig(
        n_shards=2,
        tick_interval_s=0.02,  # deliberate: latency >> transit noise
        max_steps_per_tick=4,
        persistence=PersistenceConfig(directory=tmp_path / "wal"),
    ))
    server = GatewayServer(
        manager, game, config=GatewayConfig(telemetry_port=0),
    )

    async def _run_traced(host: str, port: int) -> list:
        client = GatewayClient(
            host, port, trace_sample=1.0, request_timeout_s=60.0,
        )
        await client.connect()
        observed = []
        try:
            for k, script in enumerate(scripts):
                pid = f"{script.player_id}#t{k}"
                t0 = time.perf_counter()
                await client.submit(pid, script.ops, dt=script.dt)
                trace_id = client.trace_for(pid)
                await client.wait_end(pid, timeout=60.0)
                observed.append((trace_id, time.perf_counter() - t0))
        finally:
            await client.close()
        return observed

    with GatewayThread(server) as handle:
        tel_port = handle.telemetry_port
        assert tel_port is not None, "telemetry endpoint did not bind"
        observed = asyncio.run(_run_traced(handle.host, handle.port))
        timelines = []
        for trace_id, latency in observed:
            assert trace_id is not None, "submission was not trace-sampled"
            url = f"http://127.0.0.1:{tel_port}/trace/{trace_id}"
            with urllib.request.urlopen(url, timeout=10) as resp:
                timelines.append((json.loads(resp.read()), latency))

    assert timelines, "no sampled requests to check"
    waterfalls = []
    for timeline, latency in timelines:
        assert timeline["status"] == "ok"
        assert set(timeline["phase_totals"]) == {
            "accept", "queue_wait", "shard_step", "fsync_wait", "flush",
        }
        phase_sum = sum(p["duration_s"] for p in timeline["phases"])
        assert abs(phase_sum - latency) <= 0.10 * latency, (
            f"trace {timeline['trace_id']}: phases sum to "
            f"{phase_sum * 1e3:.2f}ms but the client observed "
            f"{latency * 1e3:.2f}ms SUBMIT->END"
        )
        # the in-thread spans nested under the request (shard.step and
        # everything opened inside it) lie inside the request's window
        assert any(c["name"] == "shard.step" for c in timeline["children"])
        stack = list(timeline["children"])
        while stack:
            child = stack.pop()
            assert 0.0 <= child["start_s"], child
            assert child["start_s"] + child["duration_s"] <= timeline["total_s"], (
                f"trace {timeline['trace_id']}: span {child['name']} ends "
                f"after the request's {timeline['total_s'] * 1e3:.2f}ms window"
            )
            stack.extend(child["children"])
        waterfalls.append(
            render_waterfall(timeline)
            + f"\nclient-observed SUBMIT->END: {latency * 1e3:.2f}ms\n"
        )
    save_result("trace_waterfall.txt", "\n".join(waterfalls))
