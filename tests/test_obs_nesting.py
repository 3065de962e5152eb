"""One trace model end to end: in-thread spans nest under request roots.

A traced SUBMIT through a persisted gateway must come back from
``/trace/<id>`` with the shard thread's ``shard.step`` spans as
children and the engine's ``engine.dispatch`` spans under those, each
with wall and thread-CPU time inside the request's window; an untraced
session on the same server must attach nothing to any request trace.
"""

import asyncio
import json
import urllib.request

import pytest

from repro import obs
from repro.gateway import GatewayClient, GatewayConfig, GatewayServer, GatewayThread
from repro.persist import PersistenceConfig
from repro.serve import ServeConfig, SessionManager
from repro.students import cohort_scripts

#: slack for the thread-CPU clock's coarser granularity than wall time
CPU_SLACK_S = 1e-3


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    obs.reset()
    yield obs
    obs.reset()
    obs.set_enabled(was)


def _walk(spans):
    for sp in spans:
        yield sp
        yield from _walk(sp["children"])


def _drive(handle, player_id, script, trace):
    async def run():
        async with GatewayClient(handle.host, handle.port) as client:
            await client.submit(player_id, script.ops, dt=script.dt, trace=trace)
            return await client.wait_end(player_id, timeout=30.0)

    return asyncio.run(run())


def _dispatch_roots():
    return sum(1 for sp in obs.get_tracer().roots if sp.name == "engine.dispatch")


def test_traced_submit_nests_shard_steps_and_engine_dispatch(
    live, classroom_game, tmp_path
):
    manager = SessionManager(ServeConfig(
        n_shards=2, tick_interval_s=0.002, max_steps_per_tick=50,
        persistence=PersistenceConfig(directory=tmp_path / "wal", group_window_s=0.001),
    ))
    server = GatewayServer(manager, classroom_game, config=GatewayConfig(telemetry_port=0))
    script = cohort_scripts(classroom_game, 1, seed=41)[0]
    trace_id = obs.new_id()
    with GatewayThread(server) as handle:
        end = _drive(handle, "nest#traced", script, trace_id)
        assert end["trace"] == trace_id
        url = f"http://127.0.0.1:{handle.telemetry_port}/trace/{trace_id}"
        with urllib.request.urlopen(url, timeout=10) as resp:
            timeline = json.loads(resp.read())
        children_before = len(timeline["children"])
        dispatch_before = _dispatch_roots()
        _drive(handle, "nest#untraced", script, None)

    assert timeline["status"] == "ok"
    steps = [c for c in timeline["children"] if c["name"] == "shard.step"]
    assert len(steps) == len(script.ops) == children_before
    assert any(g["name"] == "engine.dispatch" for s in steps for g in s["children"])
    total = timeline["total_s"]
    for child in _walk(timeline["children"]):
        assert child["trace_id"] == trace_id
        assert 0.0 <= child["start_s"]
        assert child["start_s"] + child["duration_s"] <= total
        assert 0.0 <= child["cpu_s"] <= child["duration_s"] + CPU_SLACK_S
    assert sum(s["duration_s"] for s in steps) <= timeline["phase_totals"]["shard_step"]

    # the untraced session: no new request trace, nothing attached to
    # the traced one, and its engine dispatches stayed free roots
    store = obs.get_tracer()
    assert store.finished_ids() == [trace_id]
    assert store.open_count == 0
    assert len(store.get(trace_id)["children"]) == children_before
    assert _dispatch_roots() > dispatch_before
