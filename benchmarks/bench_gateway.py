"""Gateway bench: shard-count sweep measured through real TCP sockets.

Offers a fixed load of cohort-scripted sessions to a loopback
``repro.gateway`` server fronting session managers of increasing shard
count, and reports completed sessions per second plus the p95 PING
frame round trip observed from the client side.  The headline claim
this file defends: at a fixed offered load, going from 1 shard to 4
shards at least doubles sessions/second *through the gateway* — i.e.
the wire edge (framing, admission acks, END push) does not serialise
what the shards parallelise.

Tunable from the environment so the CI gateway-smoke step can run a
small, fast sweep:

``REPRO_GATEWAY_BENCH_SHARDS``
    Comma-separated shard counts to sweep (default ``1,2,4``).
``REPRO_GATEWAY_BENCH_SESSIONS``
    Sessions offered per sweep point (default ``120``).
``REPRO_GATEWAY_BENCH_CLIENTS``
    Concurrent client connections per sweep point (default ``4``).

The sweep results are also gated in-process against the
``repro_gateway_*`` rules of ``examples/slo.toml`` — the same rules
``repro gateway bench --slo`` and ``repro obs check`` enforce.
"""

import os
from pathlib import Path

import pytest

from conftest import save_json, save_result
from repro import obs
from repro.core import fetch_quest_game
from repro.gateway import run_gateway_benchmark
from repro.reporting import format_table
from repro.students import cohort_scripts

SLO_FILE = Path(__file__).parent.parent / "examples" / "slo.toml"


def _env_shards() -> list:
    raw = os.environ.get("REPRO_GATEWAY_BENCH_SHARDS", "1,2,4")
    return [int(s) for s in raw.split(",") if s.strip()]


def _env_sessions() -> int:
    return int(os.environ.get("REPRO_GATEWAY_BENCH_SESSIONS", "120"))


def _env_clients() -> int:
    return int(os.environ.get("REPRO_GATEWAY_BENCH_CLIENTS", "4"))


@pytest.fixture(scope="module")
def sweep():
    """One socket shard sweep at fixed load, shared by every assertion."""
    obs.enable()  # handshake/RTT histograms feed the SLO rules
    game = fetch_quest_game(n_quests=2, title="gateway bench").build()
    scripts = cohort_scripts(game, 12, seed=2007)
    return run_gateway_benchmark(
        game,
        _env_shards(),
        sessions=_env_sessions(),
        scripts=scripts,
        clients=_env_clients(),
        tick_interval_s=0.01,
        max_steps_per_tick=20,
    )


def test_gateway_sweep_completes_offered_load(sweep, results_dir):
    save_result(
        "gateway_shard_sweep.txt",
        format_table(
            [r.as_row() for r in sweep],
            title=(
                f"gateway shard sweep ({_env_sessions()} sessions/point, "
                f"{_env_clients()} clients)"
            ),
        ),
    )
    for r in sweep:
        assert r.report.drained, f"{r.shards}-shard run failed to drain"
        assert r.report.completed == r.report.offered
        assert r.report.rejected == 0
        assert r.report.failed == 0


def test_gateway_sweep_records_frame_rtt(sweep):
    for r in sweep:
        rtt = r.report.rtt_p95_s
        assert rtt is not None, "load run recorded no PING round trips"
        # Loopback frame RTT should be well under a tick interval.
        assert rtt < 1.0, f"loopback p95 RTT {rtt:.3f}s"


def test_gateway_scales_with_shard_count(sweep):
    """The acceptance bar: >= 2x sessions/sec going 1 -> 4 shards."""
    by_shards = {r.shards: r for r in sweep}
    if 1 not in by_shards or 4 not in by_shards:
        pytest.skip("sweep does not include both 1 and 4 shards")
    one = by_shards[1].report.sessions_per_second
    four = by_shards[4].report.sessions_per_second
    assert one > 0
    speedup = four / one
    assert speedup >= 2.0, f"1->4 shard speedup only {speedup:.2f}x"


def test_gateway_emits_machine_readable_result(sweep, results_dir):
    """BENCH_gateway.json: throughput + p95 frame RTT, for tooling."""
    payload = {
        "benchmark": "gateway",
        "sessions_per_point": _env_sessions(),
        "clients": _env_clients(),
        "points": [
            {
                "shards": r.shards,
                "throughput_sessions_per_s": r.report.sessions_per_second,
                "p95_frame_rtt_s": r.report.rtt_p95_s,
                "completed": r.report.completed,
                "rejected": r.report.rejected,
            }
            for r in sweep
        ],
    }
    path = save_json("BENCH_gateway.json", payload)
    assert path.is_file()
    for point in payload["points"]:
        assert point["throughput_sessions_per_s"] > 0
        assert point["p95_frame_rtt_s"] is not None


def test_gateway_slo_rules_pass(sweep):
    """The repro_gateway_* rules of examples/slo.toml hold under load."""
    rules = [
        r for r in obs.parse_slo_file(SLO_FILE)
        if (r.metric or r.numerator or "").startswith("repro_gateway_")
    ]
    assert rules, "examples/slo.toml lost its gateway rules"
    results, all_ok = obs.evaluate_slos(rules, obs.snapshot())
    breached = [r.rule.title for r in results if not r.ok]
    assert all_ok, f"gateway SLO rules breached: {breached}"


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
        persistence=PersistenceConfig(
            directory=tmp_path / "wal", group_window_s=0.002,
        ),
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
