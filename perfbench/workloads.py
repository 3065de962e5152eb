"""The passes the benchmark runs: ``lab``, ``classroom`` and ``restart``.

Every pass launches the server of ``server.py`` in its own process and
drives it from this one (one asyncio thread, at most two gateway
connections at a time).  Each returns a :class:`Result`: the end-to-end
figures, exact counts, failure accounting and, for traced passes, the
server's span summary.  ``lab`` and ``classroom`` are the benchmark's
workloads; ``restart`` runs only in the traced run (see ``README.md``).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from client import (
    Connection,
    ServerProcess,
    Session,
    SpeedProbe,
    http_get,
    parse_prometheus,
)
from inputs import arrival_schedule, crash_plan, write_crash_image
from repro.faultline.chaos import reference_digest
from repro.gateway.protocol import HELLO, PING

#: lab: closed loop, two connections, a fixed window each
LAB_CONNS = 2
LAB_WINDOW = 16
#: sessions per connection before it is closed and replaced; bounds the
#: server's per-connection player list (see README, "traps")
LAB_PER_CONN = 1000
LAB_WARMUP_S = 2.0
#: the CPU-bound figures (lab's rate and p50, setup_s) are scaled to the
#: CPU speed at which the speed probe's loop, run on the server's CPU
#: every SPEED_PROBE_PERIOD_S, takes REFERENCE_LOOP_US of CPU time; a
#: time-bounded lab run is scaled per window of LAB_BIN_S seconds
#: (README, "machine speed drifts")
REFERENCE_LOOP_US = 175.0
SPEED_PROBE_PERIOD_S = 0.02
LAB_BIN_S = 1.0
#: classroom: open-loop Poisson arrivals, every SUBMIT traced
CLASSROOM_RATE = 50.0
CLASSROOM_WARMUP_S = 2.0
#: restart: crash-image size and shape
RESTART_SESSIONS = 1500
RESTART_SNAPSHOT_EVERY = 4
RESTART_RESUME_BATCH = 250
#: launches timed for setup_s, and loaded relaunches timed for
#: recovery_s; each reports the median
REPEATS = 5
#: a session that does not END within this is a failure
SESSION_TIMEOUT_S = 60.0


@dataclass
class Result:
    """What one workload pass measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)
    prom: Dict[str, float] = field(default_factory=dict)


def quantile(values: List[float], q: float) -> float:
    """Exact nearest-rank quantile of the raw samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latency_summary(name: str, samples: List[float], failed: int) -> Dict[str, Any]:
    """p50/p95/p99 in ms; a failed session counts as missing every limit."""
    values = [s * 1e3 for s in samples] + [math.inf] * failed
    return {
        f"{name}_n": len(values),
        f"{name}_p50_ms": quantile(values, 0.50),
        f"{name}_p95_ms": quantile(values, 0.95),
        f"{name}_p99_ms": quantile(values, 0.99),
    }


def slowness(speed: List[list], t0: float, t1: float) -> float:
    """How much slower than the reference the server's CPU ran in
    ``[t0, t1)``: the median probe loop time there over
    REFERENCE_LOOP_US.  ``speed`` holds the probe's (time, µs) samples."""
    loops = [us for t, us in speed if t0 <= t < t1]
    if not loops:
        raise RuntimeError("no speed-probe sample in a timed interval")
    return statistics.median(loops) / REFERENCE_LOOP_US


def speed_scaled_windows(sessions: List[Session], speed: List[list],
                         t_start: float, t_end: float,
                         width: float) -> Dict[str, List[float]]:
    """Per-window figures of ``sessions``, binned by END time.

    For each window of ``width`` seconds from ``t_start``: ``rate``
    (completions per second) and ``p50_ms`` as measured, ``slowness``,
    and both figures at the reference speed: ``ref_rate`` is the rate
    times the slowness, ``ref_p50_ms`` the p50 divided by it.  A failed
    session counts in no rate and enters the p50 as +inf.
    """
    n = int((t_end - t_start) / width)
    lat: List[List[float]] = [[] for _ in range(n)]
    done = [0] * n
    for s in sessions:
        k = int((s.ended - t_start) / width)
        if 0 <= k < n:
            ok = check_end(s)
            done[k] += ok
            lat[k].append((s.ended - s.sent) * 1e3 if ok else math.inf)
    out: Dict[str, List[float]] = {
        "rate": [], "p50_ms": [], "slowness": [], "ref_rate": [],
        "ref_p50_ms": []}
    for k in range(n):
        t0 = t_start + k * width
        slow = slowness(speed, t0, t0 + width)
        rate = done[k] / width
        p50 = quantile(lat[k], 0.5) if lat[k] else math.inf
        out["rate"].append(rate)
        out["p50_ms"].append(p50)
        out["slowness"].append(slow)
        out["ref_rate"].append(rate * slow)
        out["ref_p50_ms"].append(p50 / slow)
    return out


def check_end(session: Session) -> bool:
    """The correctness gate: an END whose digest is the reference's."""
    return session.error is None and session.digest == session.script.full_digest


async def first_ping(port: int) -> float:
    """Open a connection, answer-wait one PING; returns the answer time."""
    conn = Connection(lambda s: None)
    await conn.open(port)
    await conn.request(PING, {})
    t = time.monotonic()
    await conn.close()
    return t


def launch(root: Path, **flags: bool) -> ServerProcess:
    """Start a server and answer-wait one PING (``server.t_ping``)."""
    os.sync()  # earlier runs' writeback must not land inside the timing
    server = ServerProcess(root, **flags)
    try:
        server.t_ping = asyncio.run(first_ping(server.port))
    except BaseException:
        server.kill()
        raise
    return server


def timed_setups(run_dir: Path, **flags: bool) -> tuple:
    """Launch REPEATS fresh servers; keep the last one running.

    A speed probe on the server's CPU runs meanwhile.  Returns (running
    server, median launch-to-first-PING seconds at the reference speed,
    the same median as measured).
    """
    spans = []
    server = None
    probe = SpeedProbe(SPEED_PROBE_PERIOD_S)
    try:
        for k in range(REPEATS):
            if server is not None:
                server.stop()
                shutil.rmtree(run_dir / f"server-{k - 1}")
            server = launch(run_dir / f"server-{k}", **flags)
            spans.append((server.t_launch, server.t_ping))
        speed = probe.stop()
    except BaseException:
        probe.kill()
        if server is not None:
            server.kill()
        raise
    times = [b - a for a, b in spans]
    scaled = [(b - a) / slowness(speed, a, b) for a, b in spans]
    return server, statistics.median(scaled), statistics.median(times)


def relaunch_recovery(root: Path) -> float:
    """Median go-to-first-PING of a loaded server recovering ``root``."""
    times = []
    for _ in range(REPEATS):
        server = launch(root, recover=True, wait_go=True)
        server.stop()
        times.append(server.t_ping - server.t_go)
    return statistics.median(times)


def stop_server(server: ServerProcess, result: Result) -> None:
    """Read peak RSS, then drain and stop; keep the server's summary
    and the program's counters as they stood after the drain."""
    result.metrics["server_peak_rss_mb"] = server.peak_rss_mb()
    result.server = server.stop()
    result.prom = parse_prometheus(result.server["metrics"])
    result.spans = result.server.get("spans", {})


def account(result: Result) -> None:
    """Failure accounting from the program's own counters."""
    prom = result.prom
    result.notes.update(
        rejected=int(prom.get("repro_serve_rejected_total", 0)),
        durability_timeouts=int(
            prom.get("repro_persist_durability_timeout_total", 0)),
        quorum_timeouts=int(prom.get("repro_quorum_timeouts_total", 0)),
        session_failures=int(prom.get("repro_serve_session_failures_total", 0)),
    )
    result.failed += (result.notes["rejected"]
                      + result.notes["durability_timeouts"]
                      + result.notes["quorum_timeouts"])


def exact_counts(result: Result) -> Dict[str, float]:
    """Counts of a count-bounded pass that repeat exactly for a seed."""
    prom = result.prom
    return {
        "sessions": result.attempted,
        "frames": prom.get("repro_gateway_frames_total", 0.0),
        "wire_bytes": prom.get("repro_gateway_bytes_total", 0.0),
        "wal_records": prom.get("repro_persist_records_total", 0.0),
        "wal_bytes": prom.get("repro_persist_bytes_total", 0.0),
        "steps": prom.get("repro_serve_steps_total", 0.0),
    }


def pacing_guard(result: Result) -> None:
    """Fail the run when a shard's steps per tick reached the budget."""
    done = result.server
    result.notes["max_steps_per_tick"] = done["max_steps_per_tick"]
    result.notes["step_budget"] = done["step_budget"]
    if done["max_steps_per_tick"] >= done["step_budget"]:
        result.notes["pacing_capped"] = True
        result.failed += 1


def serve_pass(run_dir: Path, with_setup: bool, drive, **flags: bool) -> tuple:
    """Launch a server, ``drive(server, result)`` it, then stop it.

    With ``with_setup`` the launch is timed (``setup_s``) and afterwards
    loaded servers recover the WAL the pass left (``recovery_s``, printed
    with the notes).
    Returns ``(result, whatever drive returned)``.
    """
    result = Result()
    if with_setup:
        server, result.metrics["setup_s"], result.notes["setup_raw_s"] = (
            timed_setups(run_dir, **flags))
        root = run_dir / f"server-{REPEATS - 1}"
    else:
        root = run_dir / "server"
        server = launch(root, **flags)
    try:
        run = drive(server, result)
        stop_server(server, result)
    except BaseException:
        server.kill()
        raise
    account(result)
    pacing_guard(result)
    if with_setup:
        result.notes["recovery_s"] = relaunch_recovery(root)
    return result, run


# ----------------------------------------------------------------------
# lab: closed loop at saturation
# ----------------------------------------------------------------------

async def _closed_loop(port: int, pool, seed: int, *, seconds: float,
                       warmup: float, per_lane: Optional[int],
                       cpu_probe) -> Dict[str, Any]:
    """Two lanes, each a connection keeping LAB_WINDOW sessions in flight.

    With ``per_lane`` set, each lane runs exactly that many sessions and
    every session is measured; otherwise lanes run until the window of
    ``seconds`` after ``warmup`` closes.
    """
    loop = asyncio.get_running_loop()
    ended: List[Session] = []
    stopping = False
    t_start = loop.time() + warmup
    t_end = t_start + seconds
    cpu: List[float] = []

    async def lane(index: int) -> int:
        window = asyncio.Semaphore(LAB_WINDOW)
        n = 0

        def on_end(session: Session) -> None:
            ended.append(session)
            window.release()

        while not stopping and (per_lane is None or n < per_lane):
            conn = Connection(on_end)
            await conn.open(port)
            quota = LAB_PER_CONN if per_lane is None else per_lane - n
            for _ in range(min(quota, LAB_PER_CONN)):
                await window.acquire()
                if stopping:
                    window.release()
                    break
                script = pool[(n * LAB_CONNS + index) % len(pool)]
                conn.submit(Session(f"l{seed}-{index}-{n}", script))
                n += 1
            await conn.idle.wait()
            await conn.close()
        return n

    def mark_start() -> None:
        cpu.append(cpu_probe())

    def mark_end() -> None:
        nonlocal stopping
        cpu.append(cpu_probe())
        stopping = True

    t0 = loop.time()
    if per_lane is None:
        loop.call_at(t_start, mark_start)
        loop.call_at(t_end, mark_end)
    else:
        cpu.append(cpu_probe())
    submitted = sum(await asyncio.gather(*(lane(i) for i in range(LAB_CONNS))))
    if per_lane is not None:
        cpu.append(cpu_probe())
        t_start, t_end = t0, loop.time()
        window_sessions = ended
    else:
        window_sessions = [s for s in ended if t_start <= s.ended < t_end]
    return {
        "submitted": submitted,
        "ended": ended,
        "window": window_sessions,
        "elapsed": t_end - t_start,
        "cpu_s": cpu[1] - cpu[0],
        "t_start": t_start,
        "t_end": t_end,
    }


def lab(run_dir: Path, seed: int, seconds: float, *, pool,
        trace: bool = False, per_lane: Optional[int] = None,
        with_setup: bool = True) -> Result:
    """Closed loop at saturation over the persisted gateway."""
    def drive(server: ServerProcess, _result: Result) -> Dict[str, Any]:
        def closed_loop() -> Dict[str, Any]:
            return asyncio.run(_closed_loop(
                server.port, pool, seed, seconds=seconds,
                warmup=LAB_WARMUP_S, per_lane=per_lane,
                cpu_probe=server.cpu_s))

        if per_lane is not None:
            return closed_loop()
        probe = SpeedProbe(SPEED_PROBE_PERIOD_S)
        try:
            run = closed_loop()
        except BaseException:
            probe.kill()
            raise
        run["speed"] = probe.stop()
        return run

    result, run = serve_pass(run_dir, with_setup, drive, trace=trace)
    result.attempted = run["submitted"]
    result.failed += run["submitted"] - sum(map(check_end, run["ended"]))
    window = run["window"]
    good = [s for s in window if check_end(s)]
    measured = [s for s in good if s.sent >= run["t_start"]]
    bad = len(window) - len(good)
    lat = latency_summary("session", [s.ended - s.sent for s in measured], bad)
    adm = latency_summary("admit", [s.acked - s.sent for s in measured], bad)
    mean_rate = len(good) / run["elapsed"]
    if per_lane is None:
        win = speed_scaled_windows(window, run["speed"], run["t_start"],
                                   run["t_end"], LAB_BIN_S)
        result.metrics.update(
            sessions_per_s=statistics.median(win["ref_rate"]),
            session_p50_ms=statistics.median(win["ref_p50_ms"]),
        )
        result.notes.update(
            windows=len(win["rate"]),
            window_rate_p50=statistics.median(win["rate"]),
            window_p50_ms_p50=statistics.median(win["p50_ms"]),
            slowness_p50=statistics.median(win["slowness"]),
            slowness_range=[min(win["slowness"]), max(win["slowness"])])
    else:
        # a count-bounded pass is too short for windows: whole-pass
        # figures, as measured
        result.metrics.update(sessions_per_s=mean_rate,
                              session_p50_ms=lat["session_p50_ms"])
    result.notes.update(
        lat, admit_n=adm["admit_n"], admit_p50_ms=adm["admit_p50_ms"],
        mean_sessions_per_s=mean_rate,
        server_cpu_us_per_session=run["cpu_s"] / max(1, len(good)) * 1e6,
        window_sessions=len(window))
    return result


# ----------------------------------------------------------------------
# classroom: open loop, durable ENDs, quorum standby
# ----------------------------------------------------------------------

async def _open_loop(server: ServerProcess, pool, seed: int,
                     schedule: List[float], warmup: float) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    conns = [Connection(lambda s: None) for _ in range(2)]
    for conn in conns:
        await conn.open(server.port)
    t0 = loop.time() + 0.05
    sessions: List[Session] = []
    cpu: List[float] = []

    def send(i: int) -> None:
        session = sessions[i]
        conns[i % 2].submit(session, trace=session.pid)

    for i, offset in enumerate(schedule):
        sessions.append(Session(f"c{seed}-{i}", pool[i % len(pool)],
                                due=t0 + offset))
        loop.call_at(t0 + offset, send, i)
    t_start = t0 + warmup
    t_end = t0 + (schedule[-1] if schedule else 0.0)
    loop.call_at(t_start, lambda: cpu.append(server.cpu_s()))
    loop.call_at(t_end, lambda: cpu.append(server.cpu_s()))
    await asyncio.sleep(t_end - loop.time() + 0.01)
    for conn in conns:
        await asyncio.wait_for(conn.idle.wait(), SESSION_TIMEOUT_S)
    for conn in conns:
        await conn.close()
    return {"sessions": sessions, "t_start": t_start, "t_end": t_end,
            "cpu_s": cpu[1] - cpu[0]}


def classroom(run_dir: Path, seed: int, seconds: float, *, pool,
              trace: bool = False, with_setup: bool = True) -> Result:
    """Open loop at CLASSROOM_RATE with quorum-durable ENDs."""
    schedule = arrival_schedule(seed, CLASSROOM_RATE,
                                CLASSROOM_WARMUP_S + seconds)

    def drive(server: ServerProcess, result: Result) -> Dict[str, Any]:
        run = asyncio.run(_open_loop(server, pool, seed, schedule,
                                     CLASSROOM_WARMUP_S))
        if trace:
            result.notes["traces"] = asyncio.run(
                _phase_breakdown(server.telemetry_port))
        return run

    result, run = serve_pass(run_dir, with_setup, drive, standby=True,
                             trace=trace)
    sessions = run["sessions"]
    result.attempted = len(sessions)
    result.failed += sum(1 for s in sessions if not check_end(s))
    window = [s for s in sessions if s.due >= run["t_start"]]
    good = [s for s in window if check_end(s)]
    bad = len(window) - len(good)
    lat = latency_summary("session", [s.ended - s.due for s in good], bad)
    adm = latency_summary("admit", [s.acked - s.due for s in good], bad)
    last_end = max((s.ended for s in good), default=run["t_end"])
    result.metrics.update(
        sessions_per_s=len(good) / (last_end - run["t_start"]),
        session_p50_ms=lat["session_p50_ms"],
    )
    result.notes.update(
        lat, admit_n=adm["admit_n"], admit_p50_ms=adm["admit_p50_ms"],
        server_cpu_us_per_session=run["cpu_s"] / max(1, len(good)) * 1e6,
        generator_late_p99_ms=quantile(
            [s.sent - s.due for s in sessions], 0.99) * 1e3,
        window_sessions=len(window))
    return result


async def _phase_breakdown(port: int) -> Dict[str, Any]:
    """Median of each request-trace phase over the retained traces."""
    listing = json.loads(await http_get(port, "/traces"))
    phases: Dict[str, List[float]] = {}
    totals: List[float] = []
    for trace_id in listing.get("finished", []):
        doc = json.loads(await http_get(port, f"/trace/{trace_id}"))
        for phase, seconds in (doc.get("phase_totals") or {}).items():
            phases.setdefault(phase, []).append(seconds)
        if doc.get("total_s") is not None:
            totals.append(doc["total_s"])
    return {
        "n": len(totals),
        "phase_p50_ms": {k: statistics.median(v) * 1e3
                         for k, v in phases.items()},
        "total_p50_ms": statistics.median(totals) * 1e3 if totals else None,
    }


# ----------------------------------------------------------------------
# restart: crash recovery
# ----------------------------------------------------------------------

async def _resume_all(port: int, plan, pool) -> Dict[str, Any]:
    """Re-attach every recovered player over two connections."""
    conns = [Connection(lambda s: None) for _ in range(2)]
    sessions: List[Session] = []
    hello_s: List[float] = []
    for conn in conns:
        await conn.open(port)
    t0 = time.monotonic()
    for start in range(0, len(plan), RESTART_RESUME_BATCH):
        conn = conns[(start // RESTART_RESUME_BATCH) % 2]
        batch = plan[start:start + RESTART_RESUME_BATCH]
        for pid, idx, _cut in batch:
            session = Session(pid, pool[idx], due=t0)
            sessions.append(session)
            conn.adopt(session)
        t = time.monotonic()
        reply = await conn.request(HELLO, {"resume": [p for p, _, _ in batch]})
        hello_s.append(time.monotonic() - t)
        unknown = [p for p, status in reply.get("resumed", {}).items()
                   if status == "unknown"]
        for pid in unknown:
            conn.sessions[pid].error = "unknown"
            conn.finish(conn.sessions[pid])
    for conn in conns:
        await asyncio.wait_for(conn.idle.wait(), SESSION_TIMEOUT_S)
        await conn.close()
    return {"sessions": sessions, "hello_s": hello_s}


def restart(run_dir: Path, seed: int, *, game, pool,
            trace: bool = False) -> Result:
    """Crash image -> launch -> recover -> resume every student -> END."""
    result = Result()
    plan = crash_plan(pool, RESTART_SESSIONS, seed)
    image = run_dir / "image"
    t0 = time.perf_counter()
    counts = write_crash_image(image, game, pool, seed, RESTART_SESSIONS,
                               RESTART_SNAPSHOT_EVERY)
    result.notes["image_write_s"] = time.perf_counter() - t0
    result.counts.update({f"image_{k}": v for k, v in counts.items()})
    half = {}  # pool index -> reference digest at the cut
    for _pid, idx, cut in plan[:len(pool)]:
        script = pool[idx]
        half[idx] = reference_digest(game, script.ops, script.dt, cut)
    root = run_dir / "server"
    shutil.copytree(image, root / "wal")
    server = launch(root, recover=True, wait_go=True, trace=trace)
    try:
        run = asyncio.run(_resume_all(server.port, plan, pool))
        stop_server(server, result)
    except BaseException:
        server.kill()
        raise
    rebuilt = json.loads((root / "recovered.json").read_text())
    result.attempted = len(plan)
    result.failed = sum(
        1 for pid, idx, cut in plan if rebuilt.get(pid) != [cut, half[idx]]
    ) + max(0, len(rebuilt) - len(plan))
    good = [s for s in run["sessions"] if check_end(s)]
    result.failed += len(plan) - len(good)
    account(result)
    pacing_guard(result)
    result.metrics["recovery_s"] = server.t_ping - server.t_go
    result.notes.update(
        latency_summary("session", [s.ended - server.t_ping for s in good],
                        len(plan) - len(good)),
        recovered=len(rebuilt), ready=server.ready,
        resume_hello_p50_ms=quantile(run["hello_s"], 0.5) * 1e3)
    return result
