"""Disabled-path overhead of the observability layer.

The obs package promises that instrumentation is *free when off*: every
record site — counter increments, histogram observes, span context
managers, structured log calls — first checks a module-level boolean
and returns before allocating or reading the clock.  This bench holds
that promise to numbers: with ``REPRO_OBS`` off, the whole
instrumentation envelope must stay within noise, both in absolute terms
(sub-microsecond per site on any plausible CI box, asserted with a very
generous ceiling) and relative to the real work it wraps (a fraction of
one engine dispatch).

The suite runs with obs *forced off* regardless of the environment so
the CI smoke job (which sets REPRO_OBS=1 for the other benches) cannot
accidentally turn this into an enabled-path measurement.  The one
exception is the request-tracing overhead test at the bottom, which
deliberately re-enables obs: its promise is about the *enabled* path —
head-sampling 1% of gateway submissions must not raise CPU per session.
So does the engine overhead gate, which bounds what obs on costs an
untraced engine session in thread CPU.
"""

import gc
import time

import pytest

from conftest import save_result
from repro import obs
from repro.obs import logging as olog
from repro.obs import metrics as ometrics
from repro.obs import tracing as otracing
from repro.reporting import format_table

#: Absolute per-call ceiling for one disabled instrumentation site.  A
#: disabled call is one attribute load + boolean check (~100 ns); 10 µs
#: leaves two orders of magnitude for shared-CI noise and still fails
#: loudly if someone puts an allocation before the flag check.
DISABLED_CALL_CEILING_S = 10e-6

REPS = 20_000

#: traced/untraced CPU-per-session ceiling (the 5% tracing budget) and
#: the number of alternating pairs its median is taken over
TRACE_OVERHEAD_BOUND = 1.05
PAIRS = 31
SESSIONS_PER_RUN = 200

#: engine thread-CPU ceiling, obs on over obs off, for untraced sessions
#: (median of 1.09 measured with trace-scoped engine detail, 1.45 before
#: it), and the cohort scripts one chunk of the engine loop plays
ENGINE_OVERHEAD_BOUND = 1.25
ENGINE_SCRIPTS = 64


@pytest.fixture(autouse=True)
def obs_off():
    """Force the disabled path, whatever the environment says."""
    was = obs.enabled()
    obs.set_enabled(False)
    yield
    obs.set_enabled(was)


def _per_call(fn, reps=REPS, repeats=5):
    """Best-of-N mean seconds per call (best-of defeats scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(reps)
        best = min(best, time.perf_counter() - t0)
    return best / reps


def _bench_counter(reps):
    c = ometrics.counter("bench_obs_overhead_total")
    for _ in range(reps):
        c.inc(kind="noop")


def _bench_histogram(reps):
    h = ometrics.histogram("bench_obs_overhead_seconds")
    for _ in range(reps):
        h.observe(0.5)


def _bench_span(reps):
    for _ in range(reps):
        with otracing.span("bench.noop"):
            pass


def _bench_log(reps):
    log = olog.get_logger("bench.overhead")
    for _ in range(reps):
        log.debug("noop", a=1, b="x")


def _bench_full_envelope(reps):
    """Everything an instrumented hot path does per event, disabled."""
    c = ometrics.counter("bench_obs_overhead_total")
    h = ometrics.histogram("bench_obs_overhead_seconds")
    log = olog.get_logger("bench.overhead")
    for _ in range(reps):
        with otracing.span("bench.noop"):
            c.inc()
            h.observe(0.5)
            log.debug("noop")


def test_disabled_sites_stay_within_noise(results_dir):
    sites = {
        "counter.inc": _bench_counter,
        "histogram.observe": _bench_histogram,
        "span (context mgr)": _bench_span,
        "log.debug (kwargs)": _bench_log,
        "full envelope": _bench_full_envelope,
    }
    rows = []
    for name, fn in sites.items():
        per_call = _per_call(fn)
        rows.append({"site": name, "ns_per_call": f"{per_call * 1e9:.1f}"})
        assert per_call < DISABLED_CALL_CEILING_S, (
            f"disabled {name} costs {per_call * 1e6:.2f} µs/call "
            f"(ceiling {DISABLED_CALL_CEILING_S * 1e6:.0f} µs) - "
            "something runs before the enabled-flag check"
        )
    save_result(
        "obs_disabled_overhead.txt",
        format_table(rows, title="Disabled-path obs overhead (best-of-5)"),
    )


def test_disabled_envelope_is_fraction_of_dispatch():
    """The whole disabled envelope must vanish next to one real dispatch."""
    from repro.core import fetch_quest_game
    from repro.runtime import KeyPress

    engine = fetch_quest_game(n_quests=1, title="overhead").build().new_engine()
    engine.start()

    def dispatch(reps):
        for _ in range(reps):
            engine.handle_input(KeyPress("right"))

    dispatch_per_call = _per_call(dispatch, reps=200, repeats=3)
    envelope_per_call = _per_call(_bench_full_envelope)
    # The envelope is a handful of boolean checks; one dispatch walks the
    # binding table.  x0.5 keeps the assertion far from both numbers.
    assert envelope_per_call < dispatch_per_call * 0.5, (
        f"disabled obs envelope ({envelope_per_call * 1e6:.2f} µs) is not "
        f"small next to an engine dispatch ({dispatch_per_call * 1e6:.2f} µs)"
    )


def test_tracing_overhead_under_five_percent(results_dir):
    """Request tracing at 1% head sampling costs <5% CPU per session.

    Runs the same socket burst through a loopback gateway with trace
    sampling off and at 1%, in alternating untraced/traced pairs, and
    measures each run as process CPU seconds per drained session: wall
    throughput moves with the host's CPU speed and with pacing, CPU per
    session only with the work done.  The median per-pair cost ratio
    must stay within the 5% budget.  Obs is ON here — the claim is about
    the enabled path, where the unsampled common case is one ``None``
    check per hook.
    """
    from repro.core import fetch_quest_game
    from repro.gateway import GatewayServer, GatewayThread
    from repro.serve import ServeConfig, SessionManager, SocketLoadGenerator
    from repro.students import cohort_scripts

    obs.set_enabled(True)  # the autouse fixture restores this afterwards
    obs.reset()
    game = fetch_quest_game(n_quests=2, title="trace overhead").build()
    scripts = cohort_scripts(game, 8, seed=11)

    def cpu_per_session(sample: float) -> float:
        manager = SessionManager(ServeConfig(
            n_shards=2, tick_interval_s=0.002, max_steps_per_tick=50,
        ))
        server = GatewayServer(manager, game)
        gc.collect()  # the previous run's garbage is not this run's cost
        with GatewayThread(server) as handle:
            cpu0 = time.process_time()
            report = SocketLoadGenerator(
                handle.host, handle.port, scripts,
                clients=4, trace_sample=sample,
            ).run(SESSIONS_PER_RUN, timeout=60.0)
            cpu = time.process_time() - cpu0
        assert report.drained, "overhead run failed to drain"
        return cpu / report.completed

    pairs = []
    for i in range(PAIRS):
        # alternate which arm runs first, so neither always runs warmer
        if i % 2:
            traced, base = cpu_per_session(0.01), cpu_per_session(0.0)
        else:
            base, traced = cpu_per_session(0.0), cpu_per_session(0.01)
        pairs.append((base, traced))
    ratios = sorted(traced / base for base, traced in pairs)
    ratio = ratios[len(ratios) // 2]
    save_result(
        "obs_tracing_overhead.txt",
        format_table(
            [
                {"pair": i, "untraced_cpu_ms": f"{base * 1e3:.3f}",
                 "traced_cpu_ms": f"{traced * 1e3:.3f}",
                 "ratio": f"{traced / base:.3f}"}
                for i, (base, traced) in enumerate(pairs)
            ],
            title="Process CPU per session, trace_sample 0 vs 0.01",
        )
        + f"\nmedian ratio: {ratio:.3f} (bound {TRACE_OVERHEAD_BOUND})",
    )
    assert ratio <= TRACE_OVERHEAD_BOUND, (
        f"1% trace sampling raised CPU per session to {ratio:.3f}x "
        f"(per-pair ratios {[round(r, 3) for r in ratios]}) - over the "
        "5% budget"
    )


def test_engine_obs_overhead_is_bounded(results_dir):
    """Obs on costs an untraced engine session at most 25% more CPU.

    One chunk plays 64 cohort scripts of the serving benchmark's game the
    way a shard does: ``new_engine``, every op through
    ``apply_scripted_op``, then ``state_digest``.  Chunks with obs on and
    off alternate in one thread, and each is timed in that thread's CPU
    clock, so the host's speed drift and other processes cancel within a
    pair.  The median per-pair ratio must stay within the bound: metrics
    count every session, but per-op spans and records belong to traces.
    """
    from repro.core import fetch_quest_game
    from repro.persist.records import apply_scripted_op, state_digest
    from repro.students import cohort_scripts

    game = fetch_quest_game(n_quests=2, title="gateway").build()
    scripts = cohort_scripts(game, ENGINE_SCRIPTS, seed=1)

    def chunk_cpu(on: bool) -> float:
        obs.set_enabled(on)  # the autouse fixture restores this afterwards
        gc.collect()  # the previous chunk's garbage is not this chunk's cost
        cpu0 = time.thread_time()
        for script in scripts:
            engine = game.new_engine(with_video=False)
            engine.start()
            for op in script.ops:
                apply_scripted_op(engine, op, script.dt)
            state_digest(engine.state)
        return time.thread_time() - cpu0

    chunk_cpu(True), chunk_cpu(False)  # warm caches and metric series
    pairs = []
    for i in range(PAIRS):
        if i % 2:
            on, off = chunk_cpu(True), chunk_cpu(False)
        else:
            off, on = chunk_cpu(False), chunk_cpu(True)
        pairs.append((off, on))
    ratios = sorted(on / off for off, on in pairs)
    ratio = ratios[len(ratios) // 2]
    per_session = 1e6 / ENGINE_SCRIPTS
    save_result(
        "obs_engine_overhead.txt",
        format_table(
            [
                {"pair": i, "obs_off_us_per_session": f"{off * per_session:.1f}",
                 "obs_on_us_per_session": f"{on * per_session:.1f}",
                 "ratio": f"{on / off:.3f}"}
                for i, (off, on) in enumerate(pairs)
            ],
            title=f"Engine thread CPU per untraced session, obs off vs on "
                  f"({ENGINE_SCRIPTS} scripts per chunk)",
        )
        + f"\nmedian ratio: {ratio:.3f} (bound {ENGINE_OVERHEAD_BOUND})",
    )
    assert ratio <= ENGINE_OVERHEAD_BOUND, (
        f"obs on raised engine CPU per untraced session to {ratio:.3f}x "
        f"(per-pair ratios {[round(r, 3) for r in ratios]}) - over the "
        f"{ENGINE_OVERHEAD_BOUND} bound"
    )
