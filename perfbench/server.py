"""Server process of the benchmark: one gateway in its own interpreter.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 perfbench/server.py --root DIR [--standby] [--recover] [--trace]

Builds the game, starts a persisted :class:`GatewayServer` on an
ephemeral port (telemetry endpoint on, like ``repro gateway serve``)
and prints one ``READY {json}`` line.  It serves until a line (or EOF)
arrives on stdin, then drains, shuts down and prints ``DONE {json}``
with the pacing-guard figures, the final ``/metrics`` exposition and,
when traced, the span summary.

* ``--standby``: one :class:`StandbyReplica` in this process follows
  the WAL through a :class:`ReplicationSource`, and every traced END
  waits for its quorum ack (``quorum_standbys=1``).
* ``--recover``: rebuild the persistence root's sessions before
  listening; ``DIR/recovered.json`` gets each one's cursor and digest.
* ``--trace``: wrap the layer boundaries in :mod:`spans`.
* ``--wait-go``: print ``LOADED`` once imported and built, then wait
  for a stdin line before recovering and listening, so a caller can
  time recovery without the interpreter's start-up.
* ``--cpu N``: pin the process (all its threads) to CPU ``N``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

#: the one serving configuration every workload uses: the default two
#: shards, a 1 ms tick and budgets no workload can reach, so no figure
#: is capped by pacing (the guard below fails a run that reaches one)
TICK_S = 0.002
MAX_STEPS_PER_TICK = 10_000
MAX_ADMISSIONS_PER_TICK = 1_000
MAX_SESSIONS = 20_000
#: END payloads kept for resuming clients: the restart workload's whole
#: recovered population must still be claimable after it finished
FINISHED_CACHE = 16_384


def _install_pacing_guard(stats: dict) -> None:
    """Record each shard's largest and mean steps per tick."""
    from repro.serve.manager import _Shard

    step_batch = _Shard._step_batch

    def guarded(self):
        before = self.steps
        step_batch(self)
        stepped = self.steps - before
        if stepped:
            row = stats.setdefault(self.index, [0, 0, 0])
            row[0] = max(row[0], stepped)
            row[1] += stepped
            row[2] += 1

    _Shard._step_batch = guarded


def main(argv=None) -> int:
    t_boot = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--standby", action="store_true")
    ap.add_argument("--recover", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--wait-go", action="store_true")
    ap.add_argument("--cpu", type=int, default=None)
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    recorder = fsyncs = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        fsyncs = spans.install(recorder)
    pacing: dict = {}
    _install_pacing_guard(pacing)

    from inputs import N_SHARDS, build_game
    from repro import obs
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import render_prometheus
    from repro.persist import PersistenceConfig
    from repro.serve import ServeConfig, SessionManager

    obs.enable()
    game = build_game()
    persistence = PersistenceConfig(
        directory=args.root / "wal", quorum_standbys=1 if args.standby else 0,
    )
    manager = SessionManager(ServeConfig(
        n_shards=N_SHARDS,
        max_sessions=MAX_SESSIONS,
        tick_interval_s=TICK_S,
        max_steps_per_tick=MAX_STEPS_PER_TICK,
        max_admissions_per_tick=MAX_ADMISSIONS_PER_TICK,
        persistence=persistence,
    ))
    server = GatewayServer(manager, game, config=GatewayConfig(
        telemetry_port=0, finished_cache=FINISHED_CACHE,
    ))

    source = replica = None
    if args.standby:
        from repro.replicate import ReplicationSource, StandbyReplica

        # the shipping cadence ClusterSupervisor deploys quorum nodes with
        source = ReplicationSource(
            persistence, N_SHARDS, batch_max_records=64,
            poll_interval_s=0.01, heartbeat_s=0.05,
        ).start()
        source.attach(manager)
        replica = StandbyReplica(args.root / "standby", game, N_SHARDS,
                                 source.host, source.port).start()
        deadline = time.monotonic() + 10.0
        while len(source.subscriptions()) < 1:
            if time.monotonic() > deadline:
                print("standby never subscribed", file=sys.stderr)
                return 1
            time.sleep(0.001)

    if args.wait_go:
        # imported and built: recovery timing starts at the "go" line
        print("LOADED", flush=True)
        sys.stdin.readline()
    ready: dict = {"recovered": 0}
    if args.recover:
        fsync0 = fsyncs["n"] if fsyncs is not None else 0
        t0 = time.perf_counter()
        reports = server.recover()
        ready["recover_s"] = time.perf_counter() - t0
        if fsyncs is not None:
            ready["recover_fsyncs"] = fsyncs["n"] - fsync0
        rebuilt = {
            s.player_id: [s.cursor, s.digest]
            for r in reports for s in r.sessions
        }
        ready["recovered"] = len(rebuilt)
        (args.root / "recovered.json").write_text(json.dumps(rebuilt))

    lag_samples: list = []
    stop_lag = threading.Event()

    def sample_lag() -> None:
        while not stop_lag.wait(0.005):
            lag_samples.append(sum(replica.lag(s) for s in range(N_SHARDS)))

    async def serve() -> dict:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def wait_stdin() -> None:
            sys.stdin.readline()
            loop.call_soon_threadsafe(stop.set)

        await server.start()
        threading.Thread(target=wait_stdin, daemon=True).start()
        lag_thread = None
        if recorder is not None and replica is not None:
            lag_thread = threading.Thread(target=sample_lag, daemon=True)
            lag_thread.start()
        ready.update(port=server.port, telemetry_port=server.telemetry_port,
                     boot_s=time.perf_counter() - t_boot)
        print("READY " + json.dumps(ready), flush=True)
        await stop.wait()
        stop_lag.set()
        if lag_thread is not None:
            lag_thread.join()
        drained = await server.shutdown(drain=True)
        return {"drained": drained}

    done = asyncio.run(serve())
    if replica is not None:
        replica.stop()
    if source is not None:
        source.stop()
    done.update(
        max_steps_per_tick=max((row[0] for row in pacing.values()), default=0),
        step_budget=MAX_STEPS_PER_TICK,
        busy_ticks=sum(row[2] for row in pacing.values()),
        steps=sum(row[1] for row in pacing.values()),
    )
    # the exposition /metrics serves, read once every journal is closed:
    # an untraced END reaches its client before its end record is written,
    # so a scrape while serving could miss the last group commit
    done["metrics"] = render_prometheus(obs_metrics.snapshot())
    if recorder is not None:
        done["spans"] = recorder.summary()
        done["lag_records_mean"] = (
            sum(lag_samples) / len(lag_samples) if lag_samples else None
        )
        recorder.write(str(args.root / "spans.jsonl"))
    print("DONE " + json.dumps(done), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
