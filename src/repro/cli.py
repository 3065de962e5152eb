"""Command-line interface: the platform without writing Python.

Subcommands::

    python -m repro demo                      # author + solve + play + Fig. 2
    python -m repro validate <project_dir>    # authoring-time checks
    python -m repro solve <project_dir>       # auto-generated walkthrough
    python -m repro figures <project_dir> DIR # Fig. 1 text + storyboard PPM
    python -m repro compare                   # mini-E6 cohort comparison
    python -m repro obs export                # metrics snapshot (Prometheus)
    python -m repro obs tail                  # recent structured log events
    python -m repro obs check --slo FILE      # SLO gate (nonzero on breach)
    python -m repro obs flight                # dump the flight recorder
    python -m repro obs trace [ID]            # request-trace waterfall
    python -m repro top                       # live metrics/spans dashboard
    python -m repro serve-bench               # sharded-server load sweep
    python -m repro gateway serve             # TCP front-end for the server
    python -m repro gateway bench             # socket-mode load sweep
    python -m repro wal inspect DIR           # scan durable session journals
    python -m repro wal recover DIR           # rebuild committed sessions
    python -m repro wal compact DIR           # drop snapshot-covered segments
    python -m repro chaos --plan ci-smoke     # fault-injection soak + audit

``validate`` exits non-zero when the project has errors, so it slots
into a course-content CI pipeline unchanged.  ``obs`` runs a small
instrumented workload (engine + streaming + cache + parallel encode) by
default so a fresh process still exports a representative snapshot;
``--no-demo`` exports whatever the current process has collected.
``obs check`` evaluates declarative SLO rules (examples/slo.toml) and
exits 1 on any breach, making it a drop-in CI health gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive Video Game-Based Learning platform "
        "(Chang, Hsu & Shih, ICPPW 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="author the classroom example, prove it, play it")

    p_validate = sub.add_parser("validate", help="validate a saved project")
    p_validate.add_argument("project_dir", type=Path)
    p_validate.add_argument(
        "--no-solver", action="store_true",
        help="skip the winnability proof (structural checks only)",
    )

    p_solve = sub.add_parser("solve", help="print the shortest walkthrough")
    p_solve.add_argument("project_dir", type=Path)
    p_solve.add_argument("--max-states", type=int, default=20000)

    p_fig = sub.add_parser("figures", help="render Fig. 1 and a storyboard")
    p_fig.add_argument("project_dir", type=Path)
    p_fig.add_argument("out_dir", type=Path)

    p_cmp = sub.add_parser("compare", help="run a small platform comparison")
    p_cmp.add_argument("--students", type=int, default=20)
    p_cmp.add_argument("--seed", type=int, default=2007)

    p_obs = sub.add_parser(
        "obs",
        help="observability: dump/reset/export metrics, tail logs, "
             "check SLOs, dump the flight recorder, render "
             "request-trace waterfalls",
    )
    p_obs.add_argument(
        "action",
        choices=("dump", "reset", "export", "tail", "check", "flight",
                 "trace"),
    )
    p_obs.add_argument(
        "trace_id", nargs="?", default=None,
        help="for 'trace': the request-trace id to render "
             "(default: the most recently finished trace)",
    )
    p_obs.add_argument(
        "--format", dest="fmt", choices=("prometheus", "table", "json"),
        default="prometheus",
        help="export format (default: prometheus; dump defaults to table)",
    )
    p_obs.add_argument("--output", "-o", type=Path, default=None,
                       help="write to a file instead of stdout")
    p_obs.add_argument(
        "--no-demo", action="store_true",
        help="skip the built-in instrumented workload; export the "
             "process's current registry as-is",
    )
    p_obs.add_argument(
        "--slo", type=Path, default=None,
        help="SLO rule file for 'check' (.toml or .json)",
    )
    p_obs.add_argument(
        "--snapshot", type=Path, default=None,
        help="for 'check': evaluate a saved JSON metrics snapshot "
             "instead of the live registry",
    )
    p_obs.add_argument(
        "--file", type=Path, default=None,
        help="for 'tail': a JSONL log file to read (default: the "
             "in-process flight recorder)",
    )
    p_obs.add_argument(
        "--follow", "-f", action="store_true",
        help="for 'tail --file': keep polling for new events",
    )
    p_obs.add_argument(
        "--lines", "-n", type=int, default=20,
        help="for 'tail': how many recent events to show (default 20)",
    )
    p_obs.add_argument(
        "--level", default=None,
        help="for 'tail': minimum level to show (debug/info/warning/error)",
    )
    p_obs.add_argument(
        "--url", default=None,
        help="for 'trace': fetch the timeline from a live gateway "
             "telemetry endpoint (e.g. http://127.0.0.1:9100) instead "
             "of the in-process trace store",
    )

    p_top = sub.add_parser(
        "top", help="live dashboard: metrics, span aggregates, flight tail"
    )
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes (default 1.0)")
    p_top.add_argument("--iterations", type=int, default=3,
                       help="frames to render before exiting (default 3)")
    p_top.add_argument("--once", action="store_true",
                       help="render a single frame and exit")
    p_top.add_argument(
        "--no-demo", action="store_true",
        help="observe the current process only; do not run the demo "
             "workload in the background",
    )
    p_top.add_argument("--width", type=int, default=100,
                       help="dashboard width in columns (default 100)")

    p_serve = sub.add_parser(
        "serve-bench",
        help="load-test the sharded session server across shard counts",
    )
    p_serve.add_argument(
        "--shards", default="1,2,4",
        help="comma-separated shard counts to sweep (default 1,2,4)",
    )
    p_serve.add_argument("--sessions", type=int, default=200,
                         help="sessions offered per sweep point (default 200)")
    p_serve.add_argument(
        "--rate", type=float, default=0.0,
        help="arrival rate in sessions/s; 0 = open-loop burst (default)",
    )
    p_serve.add_argument("--tick-hz", type=float, default=100.0,
                         help="shard tick frequency (default 100)")
    p_serve.add_argument("--steps-per-tick", type=int, default=20,
                         help="session-step budget per shard tick (default 20)")
    p_serve.add_argument("--max-sessions", type=int, default=100_000,
                         help="admission-control in-flight cap (default 100000)")
    p_serve.add_argument("--seed", type=int, default=2007,
                         help="cohort script sampling seed (default 2007)")
    p_serve.add_argument("--scripts", type=int, default=16,
                         help="distinct player scripts in the pool (default 16)")
    p_serve.add_argument(
        "--slo", type=Path, default=None,
        help="also gate the run's metrics through an SLO rule file "
             "(nonzero exit on breach)",
    )
    p_serve.add_argument(
        "--persist-dir", type=Path, default=None,
        help="enable durable sessions: per-shard WAL + snapshots under "
             "this directory",
    )

    p_gw = sub.add_parser(
        "gateway",
        help="network gateway: serve the sharded session server over "
             "TCP, or load-test it through real sockets",
    )
    p_gw.add_argument(
        "action", choices=("serve", "bench"),
        help="serve: run the asyncio TCP front-end until interrupted; "
             "bench: shard-count sweep through loopback sockets",
    )
    p_gw.add_argument("--host", default="127.0.0.1",
                      help="bind/connect address (default 127.0.0.1)")
    p_gw.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 binds an ephemeral port and prints it (default 0)",
    )
    p_gw.add_argument(
        "--shards", default=None,
        help="serve: shard count (default 2); bench: comma-separated "
             "sweep counts (default 1,2,4)",
    )
    p_gw.add_argument("--sessions", type=int, default=120,
                      help="bench: sessions offered per sweep point (default 120)")
    p_gw.add_argument("--clients", type=int, default=4,
                      help="bench: concurrent client connections (default 4)")
    p_gw.add_argument(
        "--rate", type=float, default=0.0,
        help="bench: arrival rate in sessions/s; 0 = open-loop burst",
    )
    p_gw.add_argument("--tick-hz", type=float, default=100.0,
                      help="shard tick frequency (default 100)")
    p_gw.add_argument("--steps-per-tick", type=int, default=20,
                      help="session-step budget per shard tick (default 20)")
    p_gw.add_argument("--max-sessions", type=int, default=100_000,
                      help="admission-control in-flight cap (default 100000)")
    p_gw.add_argument("--seed", type=int, default=2007,
                      help="cohort script sampling seed (default 2007)")
    p_gw.add_argument("--scripts", type=int, default=12,
                      help="distinct player scripts in the pool (default 12)")
    p_gw.add_argument("--quests", type=int, default=2,
                      help="quest count of the built-in game (default 2)")
    p_gw.add_argument(
        "--duration", type=float, default=0.0,
        help="serve: exit after this many seconds (0 = run until ^C)",
    )
    p_gw.add_argument(
        "--persist-dir", type=Path, default=None,
        help="durable sessions: per-shard WAL under this directory; "
             "serve recovers any committed sessions found there first",
    )
    p_gw.add_argument(
        "--slo", type=Path, default=None,
        help="bench: gate the run's repro_gateway_* metrics through an "
             "SLO rule file (nonzero exit on breach)",
    )
    p_gw.add_argument(
        "--telemetry-port", type=int, default=None,
        help="serve: also bind the HTTP telemetry endpoint "
             "(/metrics, /healthz, /trace/<id>) on this port; "
             "0 picks an ephemeral port (default: disabled)",
    )
    p_gw.add_argument(
        "--trace-sample", type=float, default=0.0,
        help="fraction of submissions stamped with a request-trace id "
             "for phase attribution (default 0.0; serve samples "
             "server-side, bench stamps client-side)",
    )

    p_wal = sub.add_parser(
        "wal",
        help="inspect, recover or compact durable session journals",
    )
    p_wal.add_argument(
        "action", choices=("inspect", "recover", "compact"),
        help="inspect: read-only scan; recover: rebuild committed "
             "sessions (truncates torn tails); compact: drop WAL "
             "segments fully covered by snapshots",
    )
    p_wal.add_argument(
        "directory", type=Path,
        help="persistence root (contains shard-*/) or a single shard dir",
    )
    p_wal.add_argument(
        "--project", type=Path, default=None,
        help="for 'recover': the game project the sessions were playing "
             "(default: the built-in fetch-quest demo game)",
    )
    p_wal.add_argument(
        "--quests", type=int, default=2,
        help="for 'recover' without --project: quest count of the "
             "built-in game (default 2)",
    )

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection soak with bit-identical recovery audit",
    )
    p_chaos.add_argument(
        "--plan", default="ci-smoke",
        help="built-in fault plan to run (default ci-smoke; see --list)",
    )
    p_chaos.add_argument(
        "--list", action="store_true",
        help="list the built-in fault plans and exit",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=None,
        help="override the plan's seed (hit schedule is derived from it)",
    )
    p_chaos.add_argument(
        "--sessions", type=int, default=24,
        help="scripted sessions to offer during the soak (default 24)",
    )
    p_chaos.add_argument(
        "--wait", type=int, default=None,
        help="ENDs to await before the first kill (default: half the "
             "sessions, a quarter for repl-quorum-partition)",
    )
    p_chaos.add_argument(
        "--shards", type=int, default=2,
        help="shard threads backing the soak server (default 2)",
    )
    p_chaos.add_argument(
        "--persist-dir", type=Path, default=None,
        help="directory for every journal of the run, kept afterwards "
             "(default: a temp dir, removed after the audit)",
    )
    p_chaos.add_argument(
        "--report", type=Path, default=None,
        help="write the full chaos report (faults fired, recovery "
             "digests, counters) to this JSON file",
    )

    p_repl = sub.add_parser(
        "repl",
        help="WAL-shipping replication: ship a journal, inspect it, "
             "promote a standby",
    )
    p_repl.add_argument(
        "action", choices=("serve", "status", "promote"),
        help="serve: ship this persistence root to standbys over TCP; "
             "status: per-shard epoch/tip summary of a root; promote: "
             "offline failover — fence epochs and adopt the journals",
    )
    p_repl.add_argument(
        "directory", type=Path,
        help="persistence root (contains shard-*/ journal directories)",
    )
    p_repl.add_argument(
        "--shards", type=int, default=None,
        help="shard count (default: inferred from the shard-* dirs)",
    )
    p_repl.add_argument(
        "--host", default="127.0.0.1",
        help="for 'serve': listen address (default 127.0.0.1)",
    )
    p_repl.add_argument(
        "--port", type=int, default=0,
        help="for 'serve': listen port (default: ephemeral, printed)",
    )
    p_repl.add_argument(
        "--duration", type=float, default=None,
        help="for 'serve': stop after this many seconds "
             "(default: run until Ctrl-C)",
    )
    p_repl.add_argument(
        "--project", type=Path, default=None,
        help="for 'promote': the game project the sessions were playing "
             "— enables the post-promotion digest audit",
    )
    p_repl.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of tables",
    )

    p_cluster = sub.add_parser(
        "cluster",
        help="placement-aware cluster: supervise a node set, inspect or "
             "rebalance its placement map",
    )
    p_cluster.add_argument(
        "action", choices=("serve", "status", "rebalance"),
        help="serve: run a primary plus standby set in this process; "
             "status: print a root's placement map; rebalance: re-plan "
             "the standby subsets and bump the map version",
    )
    p_cluster.add_argument(
        "directory", type=Path,
        help="cluster root (holds PLACEMENT.json and the per-node "
             "persistence directories)",
    )
    p_cluster.add_argument(
        "--shards", type=int, default=2,
        help="for 'serve': shard count of the new cluster (default 2)",
    )
    p_cluster.add_argument(
        "--standbys", type=int, default=3,
        help="for 'serve': standby node count (default 3)",
    )
    p_cluster.add_argument(
        "--replicas-per-shard", type=int, default=None,
        help="standbys subscribed per shard (serve/rebalance; "
             "default: every standby)",
    )
    p_cluster.add_argument(
        "--quorum", type=int, default=0,
        help="for 'serve': standby acks a traced commit must collect "
             "before wait_durable resolves (default 0: local-only)",
    )
    p_cluster.add_argument(
        "--duration", type=float, default=None,
        help="for 'serve': stop after this many seconds "
             "(default: run until Ctrl-C)",
    )
    p_cluster.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of tables",
    )
    return parser


# ----------------------------------------------------------------------
# Subcommand implementations (imports deferred: fast --help)
# ----------------------------------------------------------------------

def _cmd_demo() -> int:
    from .core import fetch_quest_game, solve
    from .reporting import render_runtime_screenshot

    wizard = fetch_quest_game(n_quests=2, title="Demo: Fetch Quest")
    report = wizard.check()
    print(f"validated: errors={len(report.errors)} warnings={len(report.warnings)} "
          f"winnable={report.winnable}")
    game = wizard.build()
    result = solve(game)
    print("walkthrough:")
    for i, move in enumerate(result.winning_script, 1):
        print(f"  {i}. {move.describe()}")
    engine = game.new_engine()
    engine.start()
    from .core.solver import _apply

    for move in result.winning_script:
        _apply(engine, move)
    print(f"outcome: {engine.state.outcome}, score: {engine.state.score}")
    print()
    print(render_runtime_screenshot(engine))
    return 0


def _cmd_validate(project_dir: Path, no_solver: bool) -> int:
    from .core import load_project, validate

    project = load_project(project_dir)
    report = validate(project, check_winnable=not no_solver)
    for issue in report.issues:
        print(issue)
    if report.winnable is not None:
        print(f"winnable: {report.winnable}"
              + (f" (shortest solution: {report.solution_length} moves)"
                 if report.winnable else ""))
    print(f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    return 0 if report.ok else 1


def _cmd_solve(project_dir: Path, max_states: int) -> int:
    from .core import load_project, solve

    game = load_project(project_dir).compile()
    result = solve(game, max_states=max_states)
    if result.winnable is None:
        print(f"inconclusive: search bound hit after {result.states_explored} states")
        return 2
    if not result.winnable:
        print(f"UNWINNABLE (explored {result.states_explored} states; "
              f"outcomes seen: {sorted(result.outcomes_seen) or 'none'})")
        return 1
    print(f"winnable in {len(result.winning_script)} moves "
          f"({result.states_explored} states explored):")
    for i, move in enumerate(result.winning_script, 1):
        print(f"  {i}. {move.describe()}")
    return 0


def _cmd_figures(project_dir: Path, out_dir: Path) -> int:
    from .core import load_project
    from .reporting import render_authoring_screenshot
    from .reporting.images import write_ppm
    from .video import storyboard

    project = load_project(project_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fig1 = render_authoring_screenshot(project)
    (out_dir / "fig1_authoring_tool.txt").write_text(fig1 + "\n")
    sheet, thumbs = storyboard(project.segments)
    write_ppm(sheet, out_dir / "storyboard.ppm")
    print(f"wrote fig1_authoring_tool.txt and storyboard.ppm "
          f"({len(thumbs)} segments) to {out_dir}")
    return 0


def _cmd_compare(students: int, seed: int) -> int:
    from .baselines import run_comparison
    from .core import exploration_game
    from .events import Trigger
    from .learning import DeliveryPoint, KnowledgeItem, KnowledgeMap
    from .reporting import format_table

    wizard = exploration_game(n_exhibits=4)
    game = wizard.build()
    kmap = KnowledgeMap()
    for k in range(4):
        examine = [b.binding_id for b in game.events
                   if b.trigger == Trigger.EXAMINE
                   and b.object_id == f"artifact-{k}"][0]
        kmap.add(KnowledgeItem(f"k{k}", f"artifact {k}"),
                 [DeliveryPoint(kind="binding", ref=examine),
                  DeliveryPoint(kind="enter", ref=f"exhibit-{k}")])
    results = run_comparison(game, kmap, n_students=students, seed=seed)
    print(format_table([s.as_row() for s in results.values()],
                       title=f"Platform comparison (n={students})"))
    return 0


def _obs_demo_workload() -> None:
    """Exercise every instrumented subsystem once, with obs enabled.

    Covers the four metric families the obs layer promises: engine
    (solve + replay a fetch quest), streaming (three-policy path
    replay), segment cache (bounded replay), and parallel segmentation
    (difference signal over a short clip).
    """
    from . import obs
    from .core import fetch_quest_game, solve
    from .core.solver import _apply
    from .graph import build_graph
    from .net import Channel, StreamSession, simulate_cached_playback
    from .runtime import KeyPress, MouseClick, SessionRecorder
    from .video import VideoReader
    from .video.parallel import parallel_difference_signal

    # Deterministic baseline: back-to-back workload runs in one process
    # (repro top refresh, repeated CLI calls under pytest) must not
    # double-count each other's serve/gateway/persist counters.
    obs.reset()

    # Engine + session: author, solve and replay the fetch-quest demo.
    game = fetch_quest_game(n_quests=2, title="obs demo").build()
    engine = game.new_engine()
    recorder = SessionRecorder(engine.bus, player_id="obs-demo")
    engine.start()
    # A few raw input events so dispatch latency has real samples
    # (the solver replay below injects triggers directly).
    engine.handle_input(MouseClick(2.0, 2.0, button="right"))
    engine.handle_input(KeyPress("right"))
    result = solve(game)
    for move in result.winning_script:
        _apply(engine, move)
        engine.tick(0.5)
    recorder.finish(
        duration=engine.state.play_time,
        outcome=engine.state.outcome,
        final_score=engine.state.score,
        scenarios_visited=len(engine.state.visited),
    )

    # Streaming + cache: replay a visit path over a modest channel.
    reader = VideoReader(game.container)
    graph = build_graph(game.scenarios, game.events, game.start)
    scenario_ids = list(game.scenarios)
    path = [(sid, 2.0) for sid in scenario_ids] + [(scenario_ids[0], 1.0)]
    for policy in ("none", "successors"):
        StreamSession(
            reader, graph, Channel(bandwidth_bps=2e5, latency_s=0.05),
            policy=policy,
        ).play_path(path)
    capacity = max(e.byte_size for e in reader.index) * 2
    simulate_cached_playback(reader, graph, path * 3, capacity, policy="lru")

    # Parallel segmentation: the shot-detection kernel over one clip.
    frames = reader.decode_segment(0)
    parallel_difference_signal(frames, max_workers=2)

    # Serving layer: a short burst through the sharded session manager
    # (fast ticks so the whole burst drains in well under a second).
    from .serve import LoadGenerator, ServeConfig, SessionManager
    from .students import cohort_scripts

    scripts = cohort_scripts(game, 4, seed=7)
    with SessionManager(
        ServeConfig(n_shards=2, tick_interval_s=0.002, max_steps_per_tick=50)
    ) as manager:
        LoadGenerator(manager, game, scripts).run(12, drain_timeout=30.0)

    # Durability: a persisted burst, then crash recovery over its WAL —
    # so repro_persist_* commit/recovery metrics have real samples.
    import tempfile as _tempfile

    from .persist import PersistenceConfig, recover_shard

    with _tempfile.TemporaryDirectory(prefix="repro-obs-wal-") as wal_dir:
        pconfig = PersistenceConfig(
            directory=wal_dir, snapshot_every=4, group_window_s=0.001
        )
        config = ServeConfig(
            n_shards=2, tick_interval_s=0.002, max_steps_per_tick=50,
            persistence=pconfig,
        )
        with SessionManager(config) as manager:
            LoadGenerator(manager, game, scripts).run(8, drain_timeout=30.0)
        for i in range(config.n_shards):
            shard_dir = pconfig.shard_dir(i)
            if shard_dir.is_dir():
                recover_shard(shard_dir, game)

    # Network gateway: the same burst through a loopback TCP socket so
    # repro_gateway_* frame/handshake/RTT metrics have real samples.
    # Every submission is trace-sampled so the repro_trace_* phase
    # histograms (and the `repro obs trace` waterfall) have data too.
    from .gateway import GatewayServer, GatewayThread
    from .serve import SocketLoadGenerator

    manager = SessionManager(
        ServeConfig(n_shards=2, tick_interval_s=0.002, max_steps_per_tick=50)
    )
    with GatewayThread(GatewayServer(manager, game)) as handle:
        SocketLoadGenerator(
            handle.host, handle.port, scripts, clients=2,
            trace_sample=1.0,
        ).run(6, timeout=30.0)
    from .obs import metrics as _obs_metrics

    _obs_metrics.get_ring().sample()  # one history point per workload run


def _cmd_obs(args: argparse.Namespace) -> int:
    from . import obs

    action = args.action
    if action == "reset":
        obs.reset()
        print("metrics, tracer and flight recorder reset")
        return 0
    if action == "check":
        return _cmd_obs_check(args)
    if action == "tail":
        return _cmd_obs_tail(args)
    if action == "trace":
        return _cmd_obs_trace(args)
    if not args.no_demo:
        obs.enable()
        _obs_demo_workload()
    if action == "flight":
        path = obs.dump_flight(args.output, reason="cli")
        print(f"wrote flight dump to {path}")
        return 0
    fmt = args.fmt
    if action == "dump" and fmt == "prometheus":
        fmt = "table"  # dump is for humans; export defaults to Prometheus
    text = obs.render_snapshot(obs.snapshot(), fmt)
    if args.output is not None:
        try:
            args.output.write_text(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {fmt} snapshot to {args.output}")
    else:
        print(text)
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    """Evaluate SLO rules; exit 0 only when every rule passes."""
    import json

    from . import obs
    from .reporting import format_table

    if args.slo is None:
        print("error: obs check requires --slo FILE", file=sys.stderr)
        return 2
    try:
        rules = obs.parse_slo_file(args.slo)
    except (OSError, obs.SloError) as exc:
        print(f"error: cannot load SLO rules: {exc}", file=sys.stderr)
        return 2
    if args.snapshot is not None:
        try:
            snap = json.loads(args.snapshot.read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load snapshot: {exc}", file=sys.stderr)
            return 2
    else:
        if not args.no_demo:
            obs.enable()
            _obs_demo_workload()
        snap = obs.snapshot()
    results, all_ok = obs.evaluate_slos(rules, snap)
    print(format_table(
        [r.as_row() for r in results],
        title=f"SLO check: {args.slo}",
    ))
    failed = sum(1 for r in results if not r.ok)
    if all_ok:
        print(f"\nSLO check passed ({len(results)} rules)")
        return 0
    print(f"\nSLO check FAILED ({failed} of {len(results)} rules breached)")
    return 1


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    """Show recent structured log events, from a file or the flight ring."""
    import json
    import time

    from . import obs

    min_level = 0
    if args.level is not None:
        if args.level not in obs.LEVELS:
            print(f"error: unknown level {args.level!r}; "
                  f"known: {', '.join(obs.LEVELS)}", file=sys.stderr)
            return 2
        min_level = obs.LEVELS[args.level]

    def _passes(record: dict) -> bool:
        return obs.LEVELS.get(record.get("level", "info"), 20) >= min_level

    if args.file is None:
        if args.follow:
            print("error: --follow requires --file", file=sys.stderr)
            return 2
        if not args.no_demo:
            obs.enable()
            _obs_demo_workload()
        events = [e for e in obs.get_flight_recorder().events() if _passes(e)]
        for record in events[-max(args.lines, 0):]:
            print(obs.format_event(record))
        return 0

    def _parse(lines: list) -> list:
        records = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn write or non-JSONL noise
            if _passes(record):
                records.append(record)
        return records

    def _emit(lines: list) -> None:
        for record in _parse(lines):
            print(obs.format_event(record), flush=True)

    try:
        with open(args.file, "r") as fh:
            records = _parse(fh.readlines())
            for record in records[-max(args.lines, 0):]:
                print(obs.format_event(record), flush=True)
            if not args.follow:
                return 0
            try:
                while True:
                    new = fh.readlines()
                    if new:
                        _emit(new)
                    else:
                        time.sleep(0.25)
            except KeyboardInterrupt:
                return 0
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    """Render one request trace as a waterfall.

    Local mode (default) reads the in-process trace store — running the
    demo workload first unless ``--no-demo`` — and renders the named
    trace, or the most recently finished one.  With ``--url`` it
    fetches the timeline from a live gateway's telemetry endpoint
    instead, so an operator can point it at a serving process.
    """
    import json

    from . import obs
    from .reporting import render_waterfall

    timeline = None
    if args.url is not None:
        import urllib.error
        import urllib.request

        base = args.url.rstrip("/")
        if "://" not in base:
            base = "http://" + base
        trace_id = args.trace_id
        try:
            if trace_id is None:
                with urllib.request.urlopen(base + "/traces", timeout=10) as r:
                    finished = json.loads(r.read()).get("finished") or []
                if not finished:
                    print("error: the gateway has no finished traces "
                          "(is --trace-sample > 0?)", file=sys.stderr)
                    return 1
                trace_id = finished[-1]
            with urllib.request.urlopen(
                f"{base}/trace/{trace_id}", timeout=10
            ) as r:
                timeline = json.loads(r.read())
        except urllib.error.HTTPError as exc:
            print(f"error: {base}/trace/{trace_id}: HTTP {exc.code}",
                  file=sys.stderr)
            return 1
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
    else:
        if not args.no_demo:
            obs.enable()
            _obs_demo_workload()
        store = obs.get_trace_store()
        trace_id = args.trace_id or store.latest()
        if trace_id is None:
            print("error: no finished traces in this process "
                  "(run without --no-demo, or use --url)", file=sys.stderr)
            return 1
        timeline = store.get(trace_id)
        if timeline is None:
            print(f"error: unknown trace id {trace_id!r}", file=sys.stderr)
            return 1
    text = render_waterfall(timeline)
    if args.output is not None:
        try:
            args.output.write_text(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote trace waterfall to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    from . import obs
    from .core import fetch_quest_game
    from .reporting import format_table
    from .serve import run_serve_benchmark
    from .students import cohort_scripts

    try:
        shard_counts = [int(s) for s in str(args.shards).split(",") if s.strip()]
    except ValueError:
        print(f"error: cannot parse --shards {args.shards!r}", file=sys.stderr)
        return 2
    if not shard_counts or any(n < 1 for n in shard_counts):
        print("error: --shards needs positive integers", file=sys.stderr)
        return 2
    if args.tick_hz <= 0:
        print("error: --tick-hz must be positive", file=sys.stderr)
        return 2

    obs.enable()
    # Fresh counters per bench pass: back-to-back CLI runs in one
    # process would otherwise double-count serve totals in the SLO gate.
    obs.reset()
    game = fetch_quest_game(n_quests=2, title="serve-bench").build()
    scripts = cohort_scripts(game, args.scripts, seed=args.seed)
    persistence = None
    if args.persist_dir is not None:
        from .persist import PersistenceConfig

        persistence = PersistenceConfig(directory=args.persist_dir)
    results = run_serve_benchmark(
        game,
        shard_counts,
        sessions=args.sessions,
        scripts=scripts,
        arrival_rate=args.rate,
        tick_interval_s=1.0 / args.tick_hz,
        max_steps_per_tick=args.steps_per_tick,
        max_sessions=args.max_sessions,
        persistence=persistence,
    )
    print(format_table(
        [r.as_row() for r in results],
        title=f"serve-bench: {args.sessions} sessions per sweep point",
    ))
    for r in results:
        per_shard = ", ".join(
            f"shard {label}: {q * 1e3:.2f}ms"
            for label, q in sorted(r.tick_p95_by_shard.items())
        )
        if per_shard:
            print(f"  {r.shards}-shard tick p95 — {per_shard}")
    base = results[0].report.sessions_per_second
    if base > 0 and len(results) > 1:
        for r in results[1:]:
            print(f"  {r.shards} shards vs {results[0].shards}: "
                  f"{r.report.sessions_per_second / base:.2f}x sessions/s")
    if args.slo is not None:
        return _check_slo_rules(args.slo, "repro_serve_", label="serve")
    return 0


def _check_slo_rules(slo_path: Path, prefix: str, label: str) -> int:
    """Gate a bench run on one subsystem's rules in an SLO file.

    A bench run only exercises one metric family (``repro_serve_*``
    for ``serve-bench``, ``repro_gateway_*`` for ``gateway bench``),
    so rules about other subsystems (which ``repro obs check`` covers
    via its demo workload) are skipped here rather than spuriously
    failing.
    """
    from . import obs
    from .reporting import format_table

    try:
        rules = obs.parse_slo_file(slo_path)
    except (OSError, obs.SloError) as exc:
        print(f"error: cannot load SLO rules: {exc}", file=sys.stderr)
        return 2
    picked = [
        r for r in rules
        if (r.metric or r.numerator or "").startswith(prefix)
    ]
    if not picked:
        print(f"error: no {prefix}* rules in {slo_path}", file=sys.stderr)
        return 2
    results, all_ok = obs.evaluate_slos(picked, obs.snapshot())
    print(format_table(
        [r.as_row() for r in results],
        title=f"{label} SLO check: {slo_path}",
    ))
    if all_ok:
        print(f"\n{label} SLO check passed ({len(results)} rules)")
        return 0
    failed = sum(1 for r in results if not r.ok)
    print(f"\n{label} SLO check FAILED "
          f"({failed} of {len(results)} rules breached)")
    return 1


def _cmd_gateway(args: argparse.Namespace) -> int:
    from . import obs

    if args.tick_hz <= 0:
        print("error: --tick-hz must be positive", file=sys.stderr)
        return 2
    obs.enable()
    if args.action == "serve":
        return _cmd_gateway_serve(args)
    return _cmd_gateway_bench(args)


def _cmd_gateway_serve(args: argparse.Namespace) -> int:
    """Run a gateway-fronted session server until ^C (or --duration)."""
    import asyncio

    from .core import fetch_quest_game
    from .gateway import GatewayConfig, GatewayServer
    from .serve import ServeConfig, SessionManager

    if args.shards is None:
        n_shards = 2
    else:
        try:
            n_shards = int(args.shards)
        except ValueError:
            print(f"error: cannot parse --shards {args.shards!r}",
                  file=sys.stderr)
            return 2
    if n_shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    persistence = None
    if args.persist_dir is not None:
        from .persist import PersistenceConfig

        persistence = PersistenceConfig(directory=args.persist_dir)
    game = fetch_quest_game(n_quests=args.quests, title="gateway").build()
    manager = SessionManager(ServeConfig(
        n_shards=n_shards,
        max_sessions=args.max_sessions,
        tick_interval_s=1.0 / args.tick_hz,
        max_steps_per_tick=args.steps_per_tick,
        persistence=persistence,
    ))
    if not 0.0 <= args.trace_sample <= 1.0:
        print("error: --trace-sample must be within [0, 1]", file=sys.stderr)
        return 2
    server = GatewayServer(
        manager, game, config=GatewayConfig(
            host=args.host, port=args.port,
            trace_sample=args.trace_sample,
            telemetry_port=args.telemetry_port,
        )
    )

    async def _serve() -> None:
        if persistence is not None:
            recovered = server.recover()
            if recovered:
                print(f"recovered {len(recovered)} live session(s) from WAL")
        await server.start()
        print(f"gateway listening on {args.host}:{server.port} "
              f"({n_shards} shard(s); ^C to drain and exit)")
        if server.telemetry_port is not None:
            print(f"telemetry on http://{args.host}:{server.telemetry_port} "
                  "(/metrics /healthz /trace/<id> /traces /history)")
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        finally:
            await server.shutdown(drain=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ndrained and stopped")
    return 0


def _cmd_gateway_bench(args: argparse.Namespace) -> int:
    """Loopback shard sweep through the gateway (mirrors serve-bench)."""
    from . import obs
    from .core import fetch_quest_game
    from .gateway import run_gateway_benchmark
    from .reporting import format_table
    from .students import cohort_scripts

    shards_spec = args.shards if args.shards is not None else "1,2,4"
    try:
        shard_counts = [int(s) for s in str(shards_spec).split(",") if s.strip()]
    except ValueError:
        print(f"error: cannot parse --shards {shards_spec!r}", file=sys.stderr)
        return 2
    if not shard_counts or any(n < 1 for n in shard_counts):
        print("error: --shards needs positive integers", file=sys.stderr)
        return 2
    # Fresh counters per bench pass (same contract as serve-bench).
    obs.reset()
    game = fetch_quest_game(n_quests=args.quests, title="gateway-bench").build()
    scripts = cohort_scripts(game, args.scripts, seed=args.seed)
    persistence = None
    if args.persist_dir is not None:
        from .persist import PersistenceConfig

        persistence = PersistenceConfig(directory=args.persist_dir)
    if not 0.0 <= args.trace_sample <= 1.0:
        print("error: --trace-sample must be within [0, 1]", file=sys.stderr)
        return 2
    results = run_gateway_benchmark(
        game,
        shard_counts,
        sessions=args.sessions,
        scripts=scripts,
        clients=args.clients,
        arrival_rate=args.rate,
        tick_interval_s=1.0 / args.tick_hz,
        max_steps_per_tick=args.steps_per_tick,
        max_sessions=args.max_sessions,
        persistence=persistence,
        trace_sample=args.trace_sample,
    )
    print(format_table(
        [r.as_row() for r in results],
        title=f"gateway bench: {args.sessions} sessions per sweep point",
    ))
    base = results[0].report.sessions_per_second
    if base > 0 and len(results) > 1:
        for r in results[1:]:
            print(f"  {r.shards} shards vs {results[0].shards}: "
                  f"{r.report.sessions_per_second / base:.2f}x sessions/s")
    if args.trace_sample > 0:
        from .obs import get_trace_store
        from .reporting import render_waterfall

        # Render the last sampled request's waterfall so the sweep ends
        # with a concrete latency attribution, not just aggregate rows.
        for r in reversed(results):
            if not r.report.trace_ids:
                continue
            timeline = get_trace_store().get(r.report.trace_ids[-1])
            if timeline is not None:
                print()
                print(render_waterfall(timeline))
                break
    if args.slo is not None:
        return _check_slo_rules(args.slo, "repro_gateway_", label="gateway")
    return 0


def _wal_shard_dirs(root: Path) -> list:
    """Journal directories under a persistence root (or the root itself)."""
    if not root.is_dir():
        return []
    shards = sorted(p for p in root.glob("shard-*") if p.is_dir())
    return shards if shards else [root]


def _cmd_wal(args: argparse.Namespace) -> int:
    from . import obs
    from .persist import (
        SnapshotStore,
        compact_segments,
        compaction_watermark,
        list_segments,
        recover_shard,
        scan_journal,
        snapshot_dir_for,
    )
    from .reporting import format_table

    shard_dirs = _wal_shard_dirs(args.directory)
    if not shard_dirs:
        print(f"error: {args.directory} is not a journal directory",
              file=sys.stderr)
        return 2

    if args.action == "inspect":
        rows = []
        for shard_dir in shard_dirs:
            report = scan_journal(shard_dir)  # read-only: no truncation
            sids: dict = {}
            for record in report.records:
                sid = record.get("sid")
                if sid is not None:
                    sids[sid] = record.get("t")
            store = SnapshotStore(snapshot_dir_for(shard_dir))
            bytes_on_disk = sum(
                p.stat().st_size for _seq, p in list_segments(shard_dir)
            )
            rows.append({
                "shard": shard_dir.name,
                "segments": report.segments,
                "records": len(report.records),
                "tip_lsn": report.tip_lsn,
                "live": sum(1 for t in sids.values() if t != "end"),
                "ended": sum(1 for t in sids.values() if t == "end"),
                "snapshots": store.count(),
                "torn": report.torn_records,
                "discarded_b": report.discarded_bytes,
                "wal_bytes": bytes_on_disk,
            })
        print(format_table(rows, title=f"wal inspect: {args.directory}"))
        torn = sum(r["torn"] for r in rows)
        if torn:
            print(f"\n{torn} torn record(s) detected; "
                  "'repro wal recover' will truncate and replay")
        return 0

    if args.action == "compact":
        total_dropped = 0
        for shard_dir in shard_dirs:
            report = scan_journal(shard_dir)
            snapshots, _rejected = SnapshotStore(
                snapshot_dir_for(shard_dir)
            ).load_all()
            covered = {}
            ended = set()
            for record in report.records:
                sid = record.get("sid")
                if record.get("t") == "start" and sid not in covered:
                    covered[sid] = int(record.get("n", 0)) - 1
                elif record.get("t") == "end":
                    ended.add(sid)
            for sid, snap in snapshots.items():
                covered[sid] = max(
                    covered.get(sid, 0), int(snap.get("lsn", 0))
                )
            for sid in ended:  # finished sessions don't pin the watermark
                covered.pop(sid, None)
            watermark = compaction_watermark(
                covered.values(), report.tip_lsn
            )
            dropped = compact_segments(shard_dir, watermark)
            total_dropped += dropped
            print(f"{shard_dir.name}: watermark lsn {watermark}, "
                  f"dropped {dropped} segment(s)")
        print(f"compacted {total_dropped} segment(s) total")
        return 0

    # recover: needs the game the journals were recorded against.
    obs.enable()
    if args.project is not None:
        from .core import load_project

        game = load_project(args.project).compile()
    else:
        from .core import fetch_quest_game

        game = fetch_quest_game(
            n_quests=args.quests, title="wal-recover"
        ).build()
    rows = []
    exit_code = 0
    for shard_dir in shard_dirs:
        try:
            report = recover_shard(shard_dir, game)
        except Exception as exc:
            print(f"error: recovery of {shard_dir} failed: {exc}",
                  file=sys.stderr)
            exit_code = 1
            continue
        rows.append({
            "shard": shard_dir.name,
            "live": len(report.sessions),
            "ended": report.ended_sessions,
            "replayed": report.replayed_records,
            "snapshots": report.snapshots_used,
            "torn": report.torn_records,
            "duration_ms": f"{report.duration_s * 1e3:.2f}",
        })
        for session in report.sessions:
            print(f"  {shard_dir.name}/{session.player_id}: "
                  f"cursor {session.cursor}/{len(session.ops)}, "
                  f"digest {session.digest[:16]}…")
    if rows:
        print(format_table(rows, title=f"wal recover: {args.directory}"))
    return exit_code


def _render_top_frame(width: int) -> str:
    """One ``repro top`` frame: metrics, span aggregates, flight tail."""
    from . import obs
    from .reporting import format_table, render_dashboard, sparkline

    snap = obs.snapshot()
    rows = obs.snapshot_rows(snap)
    # Busiest series first so a narrow terminal still shows the action.
    rows.sort(key=lambda r: str(r.get("metric", "")))
    metric_lines = format_table(rows[:14]).splitlines() if rows else ["(no metrics)"]

    tracer = obs.get_tracer()
    agg: dict = {}
    for sp in tracer.iter_spans():
        entry = agg.setdefault(sp.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += sp.duration
        entry[2] = max(entry[2], sp.duration)
    span_rows = [
        {
            "span": name,
            "count": count,
            "mean_ms": f"{1e3 * total / count:.3f}",
            "max_ms": f"{1e3 * mx:.3f}",
        }
        for name, (count, total, mx) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]
        )[:8]
    ]
    span_lines = (
        format_table(span_rows).splitlines() if span_rows else ["(no spans)"]
    )
    recent = [s.duration * 1e3 for s in tracer.finished[-40:]]
    if recent:
        span_lines.append("")
        span_lines.append(
            f"root span ms: {sparkline(recent, width=width - 24)}"
        )

    flight = obs.get_flight_recorder()
    tail = [obs.format_event(e) for e in flight.events()[-8:]]
    flight_lines = tail or ["(flight recorder empty)"]
    flight_title = (
        f"Flight recorder ({len(flight)}/{flight.capacity} events, "
        f"{flight.total_recorded} total)"
    )

    # Time-series ring: one sample per rendered frame, so successive
    # frames grow a real history even without a telemetry sidecar.
    ring = obs.get_ring()
    ring.sample(snap=snap)
    history_lines = []
    busiest = sorted(
        ((ring.series(name)[-1][1], name) for name in ring.names()),
        reverse=True,
    )[:4]
    label_w = max((len(name) for _v, name in busiest), default=0)
    for _value, name in busiest:
        values = [v for _t, v in ring.series(name)]
        history_lines.append(
            f"{name:<{label_w}} {sparkline(values, width=width - label_w - 20)}"
            f" {values[-1]:g}"
        )
    history_title = f"History ({len(ring)} samples)"

    return render_dashboard(
        "repro top - VGBL runtime observability",
        [
            ("Metrics", metric_lines),
            ("Spans", span_lines),
            (history_title, history_lines or ["(no samples)"]),
            (flight_title, flight_lines),
        ],
        width=width,
    )


def _cmd_top(
    interval: float, iterations: int, once: bool, no_demo: bool, width: int
) -> int:
    import threading
    import time

    from . import obs

    if interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    if iterations < 1:
        print("error: --iterations must be >= 1", file=sys.stderr)
        return 2
    obs.enable()
    worker: Optional[threading.Thread] = None
    if not no_demo:
        worker = threading.Thread(target=_obs_demo_workload, daemon=True)
        worker.start()
    frames = 1 if once else iterations
    if once and worker is not None:
        # A single frame should show the finished workload, not the
        # empty registry the thread hasn't populated yet.
        worker.join(timeout=60.0)
    try:
        for i in range(frames):
            if i:
                time.sleep(interval)
            # ANSI home+clear keeps successive frames in place on a tty.
            if sys.stdout.isatty() and i:
                print("\x1b[H\x1b[2J", end="")
            print(_render_top_frame(width))
            sys.stdout.flush()
    except KeyboardInterrupt:
        pass
    if worker is not None:
        worker.join(timeout=10.0)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .faultline.chaos import run_chaos
    from .faultline.plan import builtin_plans
    from .reporting import format_table

    plans = builtin_plans()
    if args.list:
        rows = []
        for name, plan in sorted(plans.items()):
            rows.append({
                "plan": name,
                "faults": len(plan.specs),
                "sites": " ".join(sorted({s.site for s in plan.specs})),
                "description": plan.description,
            })
        print(format_table(rows, title="Built-in fault plans"))
        return 0
    if args.plan not in plans:
        print(f"unknown plan {args.plan!r}; try --list", file=sys.stderr)
        return 2
    if args.sessions < 1 or args.shards < 1:
        print("error: --sessions and --shards must be >= 1", file=sys.stderr)
        return 2
    if args.wait is not None and args.wait < 1:
        print("error: --wait must be >= 1", file=sys.stderr)
        return 2
    report = run_chaos(
        args.plan,
        seed=args.seed,
        sessions=args.sessions,
        wait_for=args.wait,
        n_shards=args.shards,
        persist_dir=args.persist_dir,
    )
    print(format_table(
        report.faults,
        title=f"Fault schedule (plan={report.plan} seed={report.seed} "
              f"topology={report.topology})",
    ))
    doc = report.to_dict()
    print("audit: " + " ".join(
        f"{key}={v if isinstance(v, str) else json.dumps(v, separators=(',', ':'))}"
        for key, v in doc.items() if key not in ("faults", "failures")
    ))
    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(doc, indent=2))
        print(f"report: {args.report}")
    if not report.ok:
        print(f"chaos: FAILED {' '.join(report.failures)}", file=sys.stderr)
        print(f"reproduce: python -m repro chaos --plan {report.plan} "
              f"--seed {report.seed} --sessions {report.sessions}",
              file=sys.stderr)
        return 1
    print("chaos: OK")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import json
    from time import sleep as _sleep

    from . import obs
    from .reporting import format_table

    directory: Path = args.directory

    if args.action == "serve":
        from .cluster import ClusterSupervisor
        from .core import fetch_quest_game

        if args.shards < 1 or args.standbys < 1:
            print("error: --shards and --standbys must be >= 1",
                  file=sys.stderr)
            return 2
        if not 0 <= args.quorum <= args.standbys:
            print("error: --quorum must be within [0, --standbys]",
                  file=sys.stderr)
            return 2
        obs.enable()
        game = fetch_quest_game(n_quests=2, title="Cluster Demo").build()
        supervisor = ClusterSupervisor(
            game,
            n_shards=args.shards,
            n_standbys=args.standbys,
            replicas_per_shard=args.replicas_per_shard,
            quorum=args.quorum,
            root=directory,
        ).start()
        print(f"cluster: primary {supervisor.placement.primary_address()} "
              f"shipping {args.shards} shard(s) to {args.standbys} "
              f"standby(s), "
              f"quorum={args.quorum}; placement saved under {directory}")
        try:
            if args.duration is not None:
                _sleep(args.duration)
            else:  # pragma: no cover - interactive
                while True:
                    _sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            supervisor.stop()
        return 0

    from .cluster import PlacementMap

    try:
        pmap = PlacementMap.load(directory)
    except FileNotFoundError:
        print(f"error: no PLACEMENT.json under {directory} "
              "(run 'repro cluster serve' first)", file=sys.stderr)
        return 2

    if args.action == "status":
        doc = pmap.to_dict()
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(format_table(
            [{
                "shard": a["shard"], "primary": a["primary"],
                "standbys": " ".join(a["standbys"]) or "-",
                "epoch": a["epoch"],
            } for a in doc["assignments"]],
            title=f"Placement v{doc['version']}: {directory}",
        ))
        print(format_table(
            [{
                "node": n["node_id"], "kind": n["kind"],
                "address": f"{n['host']}:{n['port']}" if n["host"] else "-",
            } for n in doc["nodes"]],
            title="Nodes",
        ))
        return 0

    # rebalance: re-deal the standby subsets round-robin, keeping every
    # primary and epoch where it is (epochs only move via promotion)
    pool = sorted(
        node_id for node_id, node in pmap.nodes().items()
        if node.kind == "standby"
    )
    if not pool:
        print("error: the map has no standby nodes to deal",
              file=sys.stderr)
        return 2
    want = (
        len(pool) if args.replicas_per_shard is None
        else min(args.replicas_per_shard, len(pool))
    )
    rows = []
    for shard in range(pmap.n_shards):
        entry = pmap.assignment(shard)
        subset = tuple(
            pool[(shard + k) % len(pool)] for k in range(want)
        )
        pmap.assign(shard, entry.primary, subset, epoch=entry.epoch)
        rows.append({
            "shard": shard, "primary": entry.primary,
            "was": " ".join(entry.standbys) or "-",
            "now": " ".join(subset),
            "epoch": entry.epoch,
        })
    path = pmap.save(directory)
    if args.json:
        print(json.dumps(pmap.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_table(
            rows, title=f"Rebalanced -> v{pmap.version}: {path}",
        ))
        print("note: a running supervisor re-reads the map on restart; "
              "live re-subscription is the next roadmap item")
    return 0


def _cmd_repl(args: argparse.Namespace) -> int:
    import json
    from time import sleep as _sleep

    from . import obs
    from .reporting import format_table

    directory: Path = args.directory
    shard_dirs = sorted(
        entry for entry in directory.iterdir()
        if entry.is_dir() and entry.name.startswith("shard-")
    ) if directory.is_dir() else []
    n_shards = args.shards if args.shards is not None else len(shard_dirs)

    if args.action == "serve":
        if n_shards < 1:
            print(f"error: no shard-* journals under {directory} "
                  "(pass --shards to serve an empty root)", file=sys.stderr)
            return 2
        from .persist import PersistenceConfig
        from .replicate import ReplicationSource

        obs.enable()
        source = ReplicationSource(
            PersistenceConfig(directory=directory), n_shards,
            host=args.host, port=args.port,
        ).start()
        print(f"replication source: shipping {n_shards} shard(s) of "
              f"{directory} on {source.host}:{source.port}")
        try:
            if args.duration is not None:
                _sleep(args.duration)
            else:  # pragma: no cover - interactive
                while True:
                    _sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            source.stop()
        return 0

    if args.action == "status":
        from .persist import scan_journal
        from .replicate import read_epoch

        rows = []
        for index, shard_dir in enumerate(shard_dirs):
            scan = scan_journal(shard_dir, truncate=False)
            rows.append({
                "shard": index,
                "dir": shard_dir.name,
                "epoch": read_epoch(shard_dir),
                "segments": scan.segments,
                "records": len(scan.records),
                "tip_lsn": scan.tip_lsn,
                "torn": scan.torn_records,
            })
        if args.json:
            print(json.dumps({"root": str(directory), "shards": rows},
                             indent=2, sort_keys=True))
        else:
            print(format_table(rows, title=f"Replication status: {directory}"))
        return 0

    # promote
    if not shard_dirs:
        print(f"error: no shard-* journals under {directory}",
              file=sys.stderr)
        return 2
    from .replicate import promote_directory

    game = None
    if args.project is not None:
        from .core import load_project

        game = load_project(args.project).compile()
    report = promote_directory(directory, game=game)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(format_table(report.shards,
                           title=f"Promoted: {directory}"))
        if report.digests:
            print(f"audit: {len(report.digests)} live session(s) "
                  "recovered from the promoted log")
        print(f"promotion took {report.duration_s:.3f}s; the root is now "
              "a primary persistence directory")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "validate":
        return _cmd_validate(args.project_dir, args.no_solver)
    if args.command == "solve":
        return _cmd_solve(args.project_dir, args.max_states)
    if args.command == "figures":
        return _cmd_figures(args.project_dir, args.out_dir)
    if args.command == "compare":
        return _cmd_compare(args.students, args.seed)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "top":
        return _cmd_top(
            args.interval, args.iterations, args.once, args.no_demo, args.width
        )
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "wal":
        return _cmd_wal(args)
    if args.command == "repl":
        return _cmd_repl(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
