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
    python -m repro gateway serve             # TCP front-end for the server
    python -m repro wal inspect DIR           # scan durable session journals
    python -m repro wal recover DIR           # rebuild committed sessions
    python -m repro wal compact DIR           # drop snapshot-covered segments
    python -m repro chaos --plan ci-smoke     # fault-injection soak + audit
    python -m repro repl serve DIR            # ship a journal to standbys
    python -m repro repl status|promote DIR   # epochs and tips; offline failover
    python -m repro cluster serve DIR         # primary + standby set, one process
    python -m repro cluster status DIR        # print a cluster's placement map

``validate`` exits non-zero when the project has errors, so it slots
into a course-content CI pipeline unchanged.  ``obs`` runs a small
instrumented workload (engine, streaming, cache, parallel encode and
one traced, persisted burst through a loopback gateway) by default so
a fresh process still exports a representative snapshot; ``--no-demo``
exports whatever the current process has collected.  ``obs check``
evaluates declarative SLO rules (examples/slo.toml) and exits 1 on any
breach, making it a drop-in CI health gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

__all__ = ["build_parser", "main"]


def _checked(convert: Callable[[str], Any], ok: Callable[[Any], bool],
             what: str) -> Callable[[str], Any]:
    """An argparse ``type=``: ``convert`` the text, reject unless ``ok``."""
    def parse(text: str) -> Any:
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_natural = _checked(int, lambda v: v >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: v > 0, "a number > 0")
_fraction = _checked(float, lambda v: 0.0 <= v <= 1.0, "a fraction in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive Video Game-Based Learning platform "
        "(Chang, Hsu & Shih, ICPPW 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands share, each defined once
    shards = argparse.ArgumentParser(add_help=False)
    shards.add_argument("--shards", type=_positive_int, default=2,
                        help="shard count (default 2)")
    listen = argparse.ArgumentParser(add_help=False)
    listen.add_argument("--host", default="127.0.0.1",
                        help="listen address (default 127.0.0.1)")
    listen.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 binds an ephemeral port and prints it (default 0)",
    )
    node = argparse.ArgumentParser(add_help=False)  # repl and cluster
    node.add_argument(
        "--duration", type=float, default=None,
        help="for 'serve': stop after this many seconds "
             "(default: run until Ctrl-C)",
    )
    node.add_argument(
        "--json", action="store_true",
        help="print machine-readable JSON instead of tables",
    )

    sub.add_parser(
        "demo", help="author the classroom example, prove it, play it"
    ).set_defaults(func=_cmd_demo)

    p_validate = sub.add_parser("validate", help="validate a saved project")
    p_validate.set_defaults(func=_cmd_validate)
    p_validate.add_argument("project_dir", type=Path)
    p_validate.add_argument(
        "--no-solver", action="store_true",
        help="skip the winnability proof (structural checks only)",
    )

    p_solve = sub.add_parser("solve", help="print the shortest walkthrough")
    p_solve.set_defaults(func=_cmd_solve)
    p_solve.add_argument("project_dir", type=Path)
    p_solve.add_argument("--max-states", type=int, default=20000)

    p_fig = sub.add_parser("figures", help="render Fig. 1 and a storyboard")
    p_fig.set_defaults(func=_cmd_figures)
    p_fig.add_argument("project_dir", type=Path)
    p_fig.add_argument("out_dir", type=Path)

    p_cmp = sub.add_parser("compare", help="run a small platform comparison")
    p_cmp.set_defaults(func=_cmd_compare)
    p_cmp.add_argument("--students", type=int, default=20)
    p_cmp.add_argument("--seed", type=int, default=2007)

    p_obs = sub.add_parser(
        "obs",
        help="observability: export metrics, tail logs, check SLOs, dump "
             "the flight recorder, render request-trace waterfalls",
    )
    p_obs.set_defaults(func=_cmd_obs)
    p_obs.add_argument(
        "action", choices=("export", "tail", "check", "flight", "trace"),
    )
    p_obs.add_argument(
        "trace_id", nargs="?", default=None,
        help="for 'trace': the request-trace id to render "
             "(default: the most recently finished trace)",
    )
    p_obs.add_argument(
        "--format", dest="fmt", choices=("prometheus", "table", "json"),
        default="prometheus",
        help="export format (default: prometheus)",
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
        choices=("debug", "info", "warning", "error"),
        help="for 'tail': minimum level to show",
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
    p_top.set_defaults(func=_cmd_top)
    p_top.add_argument("--interval", type=_positive_float, default=1.0,
                       help="seconds between refreshes (default 1.0)")
    p_top.add_argument(
        "--iterations", type=_positive_int, default=3,
        help="frames to render before exiting (default 3); a single "
             "frame waits for the demo workload to finish",
    )
    p_top.add_argument(
        "--no-demo", action="store_true",
        help="observe the current process only; do not run the demo "
             "workload in the background",
    )
    p_top.add_argument("--width", type=int, default=100,
                       help="dashboard width in columns (default 100)")

    p_gw = sub.add_parser(
        "gateway", parents=[listen, shards],
        help="network gateway: serve the sharded session server over TCP",
    )
    p_gw.set_defaults(func=_cmd_gateway)
    p_gw.add_argument(
        "action", choices=("serve",),
        help="serve: run the asyncio TCP front-end until interrupted",
    )
    p_gw.add_argument("--tick-hz", type=_positive_float, default=100.0,
                      help="shard tick frequency (default 100)")
    p_gw.add_argument("--steps-per-tick", type=int, default=20,
                      help="session-step budget per shard tick (default 20)")
    p_gw.add_argument("--max-sessions", type=int, default=100_000,
                      help="admission-control in-flight cap (default 100000)")
    p_gw.add_argument("--quests", type=int, default=2,
                      help="quest count of the built-in game (default 2)")
    p_gw.add_argument(
        "--duration", type=float, default=0.0,
        help="exit after this many seconds (0 = run until ^C)",
    )
    p_gw.add_argument(
        "--persist-dir", type=Path, default=None,
        help="durable sessions: per-shard WAL under this directory; "
             "serve recovers any committed sessions found there first",
    )
    p_gw.add_argument(
        "--telemetry-port", type=int, default=None,
        help="also bind the HTTP telemetry endpoint "
             "(/metrics, /healthz, /trace/<id>) on this port; "
             "0 picks an ephemeral port (default: disabled)",
    )
    p_gw.add_argument(
        "--trace-sample", type=_fraction, default=0.0,
        help="fraction of submissions stamped with a request-trace id "
             "for phase attribution (default 0.0)",
    )

    p_wal = sub.add_parser(
        "wal",
        help="inspect, recover or compact durable session journals",
    )
    p_wal.set_defaults(func=_cmd_wal)
    p_wal.add_argument(
        "action", choices=("inspect", "recover", "compact"),
        help="inspect: read-only scan; recover: rebuild committed "
             "sessions (truncates torn tails); compact: drop WAL "
             "segments fully covered by snapshots",
    )
    p_wal.add_argument(
        "directory", type=Path,
        help="persistence root (contains shard-*/) or a single shard dir "
             "(contains wal-*.log)",
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
        "chaos", parents=[shards],
        help="seeded fault-injection soak with bit-identical recovery audit",
    )
    p_chaos.set_defaults(func=_cmd_chaos)
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
        "--sessions", type=_positive_int, default=24,
        help="scripted sessions to offer during the soak (default 24)",
    )
    p_chaos.add_argument(
        "--wait", type=_positive_int, default=None,
        help="ENDs to await before the first kill (default: half the "
             "sessions, a quarter for repl-quorum-partition)",
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
        "repl", parents=[node, listen],
        help="WAL-shipping replication: ship a journal, inspect it, "
             "promote a standby",
    )
    p_repl.set_defaults(func=_cmd_repl)
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
        "--project", type=Path, default=None,
        help="for 'promote': the game project the sessions were playing "
             "— enables the post-promotion digest audit",
    )

    p_cluster = sub.add_parser(
        "cluster", parents=[node, shards],
        help="placement-aware cluster: supervise a node set or inspect "
             "its placement map",
    )
    p_cluster.set_defaults(func=_cmd_cluster)
    p_cluster.add_argument(
        "action", choices=("serve", "status"),
        help="serve: run a primary plus standby set in this process; "
             "status: print a root's placement map",
    )
    p_cluster.add_argument(
        "directory", type=Path,
        help="cluster root (holds PLACEMENT.json and the per-node "
             "persistence directories)",
    )
    p_cluster.add_argument(
        "--standbys", type=_positive_int, default=3,
        help="for 'serve': standby node count (default 3)",
    )
    p_cluster.add_argument(
        "--quorum", type=_natural, default=0,
        help="for 'serve': standby acks an end record must collect "
             "before its END goes out, at most --standbys "
             "(default 0: local-only)",
    )
    return parser


def _fail(msg: str, code: int = 2) -> int:
    """Report ``error: msg`` on stderr; return the exit ``code``."""
    print(f"error: {msg}", file=sys.stderr)
    return code


def _write_or_print(text: str, output: Optional[Path], what: str) -> int:
    """Print ``text``, or write it to ``output`` and say so."""
    if output is None:
        print(text)
        return 0
    try:
        output.write_text(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        return _fail(f"cannot write {output}: {exc}", 1)
    print(f"wrote {what} to {output}")
    return 0


def _load_game(project: Optional[Path], quests: int, title: str) -> Any:
    """``project`` compiled, or else the built-in ``quests``-quest game."""
    if project is not None:
        from .core import load_project

        return load_project(project).compile()
    from .core import fetch_quest_game

    return fetch_quest_game(n_quests=quests, title=title).build()


def _run_until(duration: Optional[float], stop: Callable[[], Any]) -> int:
    """Serve for ``duration`` seconds (None: until ^C), then ``stop()``."""
    import time

    try:
        if duration is None:  # pragma: no cover - interactive
            while True:
                time.sleep(3600)
        time.sleep(duration)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        stop()
    return 0


# ----------------------------------------------------------------------
# Subcommand implementations (imports deferred: fast --help)
# ----------------------------------------------------------------------

def _cmd_demo(args: argparse.Namespace) -> int:
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


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core import load_project, validate

    project = load_project(args.project_dir)
    report = validate(project, check_winnable=not args.no_solver)
    for issue in report.issues:
        print(issue)
    if report.winnable is not None:
        print(f"winnable: {report.winnable}"
              + (f" (shortest solution: {report.solution_length} moves)"
                 if report.winnable else ""))
    print(f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    return 0 if report.ok else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    from .core import load_project, solve

    game = load_project(args.project_dir).compile()
    result = solve(game, max_states=args.max_states)
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


def _cmd_figures(args: argparse.Namespace) -> int:
    from .core import load_project
    from .reporting import render_authoring_screenshot
    from .reporting.images import write_ppm
    from .video import storyboard

    project = load_project(args.project_dir)
    out_dir: Path = args.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    fig1 = render_authoring_screenshot(project)
    (out_dir / "fig1_authoring_tool.txt").write_text(fig1 + "\n")
    sheet, thumbs = storyboard(project.segments)
    write_ppm(sheet, out_dir / "storyboard.ppm")
    print(f"wrote fig1_authoring_tool.txt and storyboard.ppm "
          f"({len(thumbs)} segments) to {out_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
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
    results = run_comparison(game, kmap, n_students=args.students,
                             seed=args.seed)
    print(format_table([s.as_row() for s in results.values()],
                       title=f"Platform comparison (n={args.students})"))
    return 0


def _obs_demo_workload() -> None:
    """Exercise every instrumented subsystem once, with obs enabled.

    Covers the engine (solve + replay a fetch quest), streaming
    (path replay under two prefetch policies), the segment cache
    (bounded replay), parallel segmentation (difference signal over a
    short clip) and serving: one traced burst through a loopback
    gateway to a persisted manager, then crash recovery over its WAL.
    """
    import tempfile

    from . import obs
    from .core import fetch_quest_game, solve
    from .core.solver import _apply
    from .gateway import GatewayServer, GatewayThread
    from .graph import build_graph
    from .net import Channel, StreamSession, simulate_cached_playback
    from .persist import PersistenceConfig, list_shard_dirs, recover_shard
    from .runtime import KeyPress, MouseClick, SessionRecorder
    from .serve import ServeConfig, SessionManager, SocketLoadGenerator
    from .students import cohort_scripts
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

    # Serving: one burst through a loopback gateway to a persisted
    # manager (fast ticks, so it drains in well under a second), every
    # submission trace-sampled so the `repro obs trace` waterfall has a
    # real fsync_wait phase; then crash recovery over the WAL.
    scripts = cohort_scripts(game, 4, seed=7)
    with tempfile.TemporaryDirectory(prefix="repro-obs-wal-") as wal_dir:
        config = ServeConfig(
            n_shards=2, tick_interval_s=0.002, max_steps_per_tick=50,
            persistence=PersistenceConfig(directory=wal_dir,
                                          snapshot_every=4),
        )
        with GatewayThread(GatewayServer(SessionManager(config), game)) as gw:
            SocketLoadGenerator(
                gw.host, gw.port, scripts, clients=2, trace_sample=1.0,
            ).run(12, timeout=30.0)
        for _index, shard_dir in list_shard_dirs(wal_dir):
            recover_shard(shard_dir, game)

    obs.get_ring().sample()  # one history point per workload run


def _cmd_obs(args: argparse.Namespace) -> int:
    from . import obs

    action = args.action
    if action == "check" and args.slo is None:
        return _fail("obs check requires --slo FILE")
    if action == "tail" and args.follow and args.file is None:
        return _fail("--follow requires --file")
    # every action reads the in-process registry unless given a source
    source = {"check": args.snapshot, "tail": args.file, "trace": args.url}
    if source.get(action) is None and not args.no_demo:
        obs.enable()
        _obs_demo_workload()
    if action == "check":
        return _obs_check(args)
    if action == "tail":
        return _obs_tail(args)
    if action == "trace":
        return _obs_trace(args)
    if action == "flight":
        path = obs.dump_flight(args.output, reason="cli")
        print(f"wrote flight dump to {path}")
        return 0
    text = obs.render_snapshot(obs.snapshot(), args.fmt)
    return _write_or_print(text, args.output, f"{args.fmt} snapshot")


def _obs_check(args: argparse.Namespace) -> int:
    """Evaluate SLO rules; exit 0 only when every rule passes."""
    import json

    from . import obs
    from .reporting import format_table

    try:
        rules = obs.parse_slo_file(args.slo)
    except (OSError, obs.SloError) as exc:
        return _fail(f"cannot load SLO rules: {exc}")
    if args.snapshot is None:
        snap = obs.snapshot()
    else:
        try:
            snap = json.loads(args.snapshot.read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"cannot load snapshot: {exc}")
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


def _obs_tail(args: argparse.Namespace) -> int:
    """Show recent structured log events, from a file or the flight ring."""
    import json
    import time

    from . import obs

    min_level = obs.LEVELS[args.level] if args.level is not None else 0

    def shown(records: list) -> list:
        return [r for r in records
                if obs.LEVELS.get(r.get("level", "info"), 20) >= min_level]

    held = ""

    def parse(text: str) -> list:
        nonlocal held
        lines = (held + text).split("\n")
        # Following, a last piece with no newline yet may be a line its
        # writer has not finished: hold it until the rest arrives.
        held = lines.pop() if args.follow else ""
        records = []
        for line in lines:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue  # torn write, blank line or non-JSONL noise
        return shown(records)

    try:
        fh = None if args.file is None else open(args.file, "r")
    except OSError as exc:
        return _fail(f"cannot read {args.file}: {exc}", 1)
    if fh is None:
        batch = shown(obs.get_flight_recorder().events())
    else:
        batch = parse(fh.read())
    batch = batch[max(len(batch) - args.lines, 0):]  # none for -n 0
    try:
        while True:
            for record in batch:
                print(obs.format_event(record), flush=True)
            if fh is None or not args.follow:
                return 0
            batch = parse(fh.read())
            if not batch:
                time.sleep(0.25)
    except KeyboardInterrupt:
        return 0
    finally:
        if fh is not None:
            fh.close()


def _obs_trace(args: argparse.Namespace) -> int:
    """Render one request trace as a waterfall.

    Local mode (default) reads the in-process trace store, filled by
    the demo workload unless ``--no-demo``, and renders the named
    trace, or the most recently finished one.  With ``--url`` it
    fetches the timeline from a live gateway's telemetry endpoint
    instead, so an operator can point it at a serving process.
    """
    import json

    from . import obs
    from .reporting import render_waterfall

    trace_id = args.trace_id
    if args.url is None:
        store = obs.get_tracer()
        trace_id = trace_id or store.latest()
        if trace_id is None:
            return _fail("no finished traces in this process "
                         "(run without --no-demo, or use --url)", 1)
        timeline = store.get(trace_id)
        if timeline is None:
            return _fail(f"unknown trace id {trace_id!r}", 1)
    else:
        import urllib.request

        base = args.url.rstrip("/")
        if "://" not in base:
            base = "http://" + base
        try:
            if trace_id is None:
                with urllib.request.urlopen(base + "/traces", timeout=10) as r:
                    finished = json.loads(r.read()).get("finished") or []
                if not finished:
                    return _fail("the gateway has no finished traces "
                                 "(is --trace-sample > 0?)", 1)
                trace_id = finished[-1]
            with urllib.request.urlopen(
                f"{base}/trace/{trace_id}", timeout=10
            ) as r:
                timeline = json.loads(r.read())
        except (OSError, ValueError) as exc:  # URLError is an OSError
            return _fail(f"cannot fetch a trace from {base}: {exc}", 1)
    return _write_or_print(render_waterfall(timeline), args.output,
                           "trace waterfall")


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Run a gateway-fronted session server until ^C (or --duration)."""
    from . import obs
    from .gateway import GatewayConfig, GatewayServer, GatewayThread
    from .persist import PersistenceConfig
    from .serve import ServeConfig, SessionManager

    obs.enable()
    persistence = None if args.persist_dir is None else PersistenceConfig(
        directory=args.persist_dir
    )
    manager = SessionManager(ServeConfig(
        n_shards=args.shards,
        max_sessions=args.max_sessions,
        tick_interval_s=1.0 / args.tick_hz,
        max_steps_per_tick=args.steps_per_tick,
        persistence=persistence,
    ))
    server = GatewayServer(
        manager, _load_game(None, args.quests, "gateway"),
        config=GatewayConfig(
            host=args.host, port=args.port,
            trace_sample=args.trace_sample,
            telemetry_port=args.telemetry_port,
        ),
    )
    if persistence is not None:
        recovered = server.recover()
        if recovered:
            print(f"recovered {len(recovered)} live session(s) from WAL")
    handle = GatewayThread(server).start()
    print(f"gateway listening on {args.host}:{server.port} "
          f"({args.shards} shard(s); ^C to drain and exit)")
    if server.telemetry_port is not None:
        print(f"telemetry on http://{args.host}:{server.telemetry_port} "
              "(/metrics /healthz /trace/<id> /traces /history)")
    return _run_until(args.duration if args.duration > 0 else None,
                      handle.stop)


def _cmd_wal(args: argparse.Namespace) -> int:
    from collections import Counter

    from . import obs
    from .persist import (
        SessionTable,
        SnapshotStore,
        compact_segments,
        compaction_watermark,
        list_segments,
        list_shard_dirs,
        recover_shard,
        scan_journal,
        snapshot_dir_for,
    )
    from .reporting import format_table

    root: Path = args.directory
    shard_dirs = [path for _index, path in list_shard_dirs(root)]
    if not shard_dirs and list_segments(root):
        shard_dirs = [root]  # a single shard's journal directory
    if not shard_dirs:
        return _fail(f"{root} is not a journal directory "
                     "(no shard-*/ or wal-*.log in it)")

    def scan(shard_dir: Path) -> tuple:
        """A read-only scan and recovery's session fold, without engines."""
        report = scan_journal(shard_dir)
        store = SnapshotStore(snapshot_dir_for(shard_dir))
        return report, SessionTable.from_log(
            store.load_all()[0].values(), report.records
        )

    if args.action == "inspect":
        rows = []
        for shard_dir in shard_dirs:
            report, table = scan(shard_dir)
            kinds = Counter(record.get("t") for record in report.records)
            ended = sum(1 for entry in table.values() if entry.ended)
            bytes_on_disk = sum(
                p.stat().st_size for _seq, p in list_segments(shard_dir)
            )
            rows.append({
                "shard": shard_dir.name,
                "segments": report.segments,
                "records": len(report.records),
                # per kind: an old journal logs an input per step, a
                # current one progress records and live inputs only
                **{kind: kinds[kind]
                   for kind in ("start", "input", "progress", "end")},
                "tip_lsn": report.tip_lsn,
                "live": len(table) - ended,
                "ended": ended,
                "snapshots": SnapshotStore(snapshot_dir_for(shard_dir)).count(),
                "torn": report.torn_records,
                "discarded_b": report.discarded_bytes,
                "wal_bytes": bytes_on_disk,
            })
        print(format_table(rows, title=f"wal inspect: {root}"))
        torn = sum(r["torn"] for r in rows)
        if torn:
            print(f"\n{torn} torn record(s) detected; "
                  "'repro wal recover' will truncate and replay")
        return 0

    if args.action == "compact":
        total_dropped = 0
        for shard_dir in shard_dirs:
            report, table = scan(shard_dir)
            # finished sessions don't pin the watermark
            watermark = compaction_watermark(
                (e.covered_lsn for e in table.values() if not e.ended),
                report.tip_lsn,
            )
            dropped = compact_segments(shard_dir, watermark)
            total_dropped += dropped
            print(f"{shard_dir.name}: watermark lsn {watermark}, "
                  f"dropped {dropped} segment(s)")
        print(f"compacted {total_dropped} segment(s) total")
        return 0

    # recover: needs the game the journals were recorded against.
    obs.enable()
    game = _load_game(args.project, args.quests, "wal-recover")
    rows = []
    exit_code = 0
    for shard_dir in shard_dirs:
        try:
            report = recover_shard(shard_dir, game)
        except Exception as exc:
            exit_code = _fail(f"recovery of {shard_dir} failed: {exc}", 1)
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
        print(format_table(rows, title=f"wal recover: {root}"))
    return exit_code


def _render_top_frame(width: int) -> str:
    """One ``repro top`` frame: metrics, span aggregates, flight tail."""
    from . import obs
    from .reporting import format_table, render_dashboard, sparkline

    snap = obs.snapshot()
    # Time-series ring: one sample per rendered frame, so successive
    # frames grow a real history even without a telemetry sidecar.
    ring = obs.get_ring()
    scalars = ring.sample(snap=snap)
    rows = obs.snapshot_rows(snap)
    # Busiest series first so a narrow terminal still shows the action:
    # ranked by their metric's scalar (counter or gauge sum, histogram
    # count), largest first.
    rows.sort(key=lambda r: (-scalars.get(r["metric"], 0.0), r["metric"]))
    metric_lines = format_table(rows[:14]).splitlines() if rows else ["(no metrics)"]

    # one store: request roots, their nested spans and free roots
    tracer = obs.get_tracer()
    agg: dict = {}
    for sp in tracer.iter_spans():
        entry = agg.setdefault(sp.name, [0, 0.0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += sp.duration
        entry[2] = max(entry[2], sp.duration)
        if sp.cpu_s is not None:  # request roots cross threads: no CPU
            entry[3] += sp.cpu_s
            entry[4] += 1
    span_rows = [
        {
            "span": name,
            "count": count,
            "mean_ms": f"{1e3 * total / count:.3f}",
            "mean_cpu_ms": f"{1e3 * cpu / timed:.3f}" if timed else "-",
            "max_ms": f"{1e3 * mx:.3f}",
        }
        for name, (count, total, mx, cpu, timed) in sorted(
            agg.items(), key=lambda kv: -kv[1][1]
        )[:8]
    ]
    span_lines = (
        format_table(span_rows).splitlines() if span_rows else ["(no spans)"]
    )
    recent = [s.duration * 1e3 for s in tracer.roots[-40:]]
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


def _cmd_top(args: argparse.Namespace) -> int:
    import threading
    import time

    from . import obs

    obs.enable()
    worker = threading.Thread(target=_obs_demo_workload, daemon=True)
    if not args.no_demo:
        worker.start()
        if args.iterations == 1:
            # A single frame should show the finished workload, not the
            # empty registry the thread hasn't populated yet.
            worker.join(timeout=60.0)
    try:
        for i in range(args.iterations):
            if i:
                time.sleep(args.interval)
            # ANSI home+clear keeps successive frames in place on a tty.
            if sys.stdout.isatty() and i:
                print("\x1b[H\x1b[2J", end="")
            print(_render_top_frame(args.width))
            sys.stdout.flush()
    except KeyboardInterrupt:
        pass
    if worker.is_alive():
        worker.join(timeout=10.0)
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .faultline.chaos import run_chaos
    from .faultline.plan import builtin_plans
    from .reporting import format_table

    plans = builtin_plans()
    if args.list:
        rows = [{
            "plan": name,
            "faults": len(plan.specs),
            "sites": " ".join(sorted({s.site for s in plan.specs})),
            "description": plan.description,
        } for name, plan in sorted(plans.items())]
        print(format_table(rows, title="Built-in fault plans"))
        return 0
    if args.plan not in plans:
        return _fail(f"unknown plan {args.plan!r}; try --list")
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

    from . import obs
    from .reporting import format_table

    directory: Path = args.directory

    if args.action == "serve":
        from .cluster import ClusterSupervisor

        if args.quorum > args.standbys:
            return _fail("--quorum must be within [0, --standbys]")
        obs.enable()
        supervisor = ClusterSupervisor(
            _load_game(None, 2, "Cluster Demo"),
            n_shards=args.shards,
            n_standbys=args.standbys,
            quorum=args.quorum,
            root=directory,
        ).start()
        print(f"cluster: primary {supervisor.placement.primary_address()} "
              f"shipping {args.shards} shard(s) to {args.standbys} "
              f"standby(s), "
              f"quorum={args.quorum}; placement saved under {directory}")
        return _run_until(args.duration, supervisor.stop)

    from .cluster import PlacementMap

    try:
        pmap = PlacementMap.load(directory)
    except FileNotFoundError:
        return _fail(f"no PLACEMENT.json under {directory} "
                     "(run 'repro cluster serve' first)")

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


def _cmd_repl(args: argparse.Namespace) -> int:
    import json

    from . import obs
    from .persist import PersistenceConfig, list_shard_dirs, scan_journal
    from .reporting import format_table

    directory: Path = args.directory
    shard_dirs = list_shard_dirs(directory)
    n_shards = args.shards if args.shards is not None else (
        shard_dirs[-1][0] + 1 if shard_dirs else 0
    )
    # serve can ship a root the primary has not written yet
    empty = n_shards < 1 if args.action == "serve" else not shard_dirs
    if empty:
        return _fail(f"no shard-* journals under {directory} "
                     "(pass --shards to serve an empty root)")

    if args.action == "serve":
        from .replicate import ReplicationSource

        obs.enable()
        source = ReplicationSource(
            PersistenceConfig(directory=directory), n_shards,
            host=args.host, port=args.port,
        ).start()
        print(f"replication source: shipping {n_shards} shard(s) of "
              f"{directory} on {source.host}:{source.port}")
        return _run_until(args.duration, source.stop)

    if args.action == "status":
        from .replicate import read_epoch

        rows = []
        for index, shard_dir in shard_dirs:
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

    # promote; --project enables the digest audit
    from .replicate import promote_directory

    game = None if args.project is None else _load_game(args.project, 2, "")
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
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
