"""Instrumentation wired into the runtime: engine, session, net, parallel.

These tests exercise real subsystems with recording enabled and assert
on metric *deltas* (the registry is process-global, so absolute values
depend on test order).
"""

import pytest

from repro import obs
from repro.events import EventBinding, EventTable, ShowText, Trigger
from repro.net import Channel, SegmentCache, StreamSession
from repro.runtime import MouseClick, SessionError, SessionRecorder
from repro.video import VideoReader
from repro.graph import build_graph


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


class TestEngineInstrumentation:
    def test_dispatch_and_interaction_metrics(self, live, classroom_game):
        engine = classroom_game.new_engine(with_video=False)
        engine.start()
        hist = obs.get_registry().get("repro_engine_dispatch_seconds")
        n0 = hist.count_of()
        i0 = _value("repro_engine_interactions_total", gesture="examine")
        engine.handle_input(MouseClick(35.0, 25.0, button="right"))  # computer
        assert hist.count_of() == n0 + 1
        assert _value("repro_engine_interactions_total", gesture="examine") == i0 + 1

    def test_transition_and_binding_counters(self, live, classroom_game):
        engine = classroom_game.new_engine(with_video=False)
        engine.start()
        t0 = _value("repro_engine_transitions_total")
        b0 = _value("repro_engine_bindings_fired_total", trigger=Trigger.CLICK)
        assert engine.fire(Trigger.CLICK, "classroom-go-market")
        assert _value("repro_engine_transitions_total") == t0 + 1
        assert (
            _value("repro_engine_bindings_fired_total", trigger=Trigger.CLICK)
            == b0 + 1
        )

    def test_condition_cache_hit_rate(self, live):
        table = EventTable(
            [
                EventBinding(
                    scenario_id="s1",
                    trigger=Trigger.CLICK,
                    object_id="door",
                    actions=[ShowText(text="creak")],
                ),
                EventBinding(
                    scenario_id="*",
                    trigger=Trigger.CLICK,
                    object_id="door",
                    priority=-1,
                    actions=[ShowText(text="global")],
                ),
            ]
        )
        h0 = _value("repro_engine_condition_cache_hits_total")
        m0 = _value("repro_engine_condition_cache_misses_total")
        first = table.match("s1", Trigger.CLICK, object_id="door")
        again = table.match("s1", Trigger.CLICK, object_id="door")
        assert first == again  # memo returns identical ordering
        assert [b.scenario_id for b in first] == ["s1", "*"]  # local beats global
        assert _value("repro_engine_condition_cache_misses_total") == m0 + 1
        assert _value("repro_engine_condition_cache_hits_total") == h0 + 1
        # Editing the table invalidates the memo.
        table.add(
            EventBinding(
                scenario_id="s1",
                trigger=Trigger.CLICK,
                object_id="door",
                priority=5,
                actions=[ShowText(text="priority")],
            )
        )
        updated = table.match("s1", Trigger.CLICK, object_id="door")
        assert [b.priority for b in updated] == [5, 0, -1]
        assert _value("repro_engine_condition_cache_misses_total") == m0 + 2

    def test_match_semantics_unchanged_by_cache(self, live):
        binding = EventBinding(
            scenario_id="s1",
            trigger=Trigger.CLICK,
            object_id="door",
            once=True,
            actions=[ShowText(text="once")],
        )
        table = EventTable([binding])
        assert table.match("s1", Trigger.CLICK, object_id="door") == [binding]
        # once-exclusion is applied per call, after the structural memo
        assert (
            table.match(
                "s1", Trigger.CLICK, object_id="door",
                exclude_ids={binding.binding_id},
            )
            == []
        )


def _engine_counts():
    """``{(metric, labels): count}`` over every ``repro_engine_*`` series:
    counter values and histogram observation counts."""
    counts = {}
    for metric in obs.snapshot()["metrics"]:
        if not metric["name"].startswith("repro_engine_"):
            continue
        for series in metric["series"]:
            key = (metric["name"], tuple(sorted(series["labels"].items())))
            counts[key] = series["count" if "count" in series else "value"]
    return counts


class TestTraceScopedEngine:
    """Per-op engine detail (the ``engine.dispatch`` span and the engine's
    records) is recorded only inside a trace; metrics count every op."""

    @pytest.fixture
    def script(self, classroom_game):
        from repro.students import cohort_scripts

        return cohort_scripts(classroom_game, 1, seed=41)[0]

    @staticmethod
    def _run(game, script):
        """Play ``script`` on a fresh engine; the ``repro_engine_*``
        deltas, the new free roots and the new engine records."""
        from repro.persist.records import apply_scripted_op

        tracer, recorder = obs.get_tracer(), obs.get_flight_recorder()
        counts0, roots0 = _engine_counts(), len(tracer.roots)
        recorded0 = recorder.total_recorded
        engine = game.new_engine(with_video=False)
        engine.start()
        for op in script.ops:
            apply_scripted_op(engine, op, script.dt)
        assert engine.state.finished  # every record site fired
        counts = _engine_counts()
        delta = {k: v - counts0.get(k, 0) for k, v in counts.items()
                 if v != counts0.get(k, 0)}
        new = recorder.total_recorded - recorded0
        records = recorder.events()[-new:] if new else []
        engine_records = [e for e in records if e["logger"] == "engine"]
        return delta, tracer.roots[roots0:], engine_records

    def test_untraced_run_counts_metrics_but_records_no_detail(
        self, live, classroom_game, script
    ):
        obs.reset()
        self._run(classroom_game, script)  # warm the event table's memo
        untraced, roots, records = self._run(classroom_game, script)
        assert roots == []
        assert records == []
        with obs.span("run"):
            traced, _roots, traced_records = self._run(classroom_game, script)
        assert untraced == traced
        names = {name for name, _labels in untraced}
        assert {"repro_engine_dispatch_seconds",
                "repro_engine_interactions_total",
                "repro_engine_bindings_fired_total",
                "repro_engine_transitions_total"} <= names
        assert traced_records

    def test_traced_run_nests_dispatch_and_correlates_records(
        self, live, classroom_game, script
    ):
        obs.reset()
        with obs.span("run") as run:
            delta, roots, records = self._run(classroom_game, script)
        assert roots == []  # "run" itself closes after the helper returns
        assert obs.get_tracer().roots[-1] is run
        dispatches = [c for c in run.children if c.name == "engine.dispatch"]
        assert dispatches
        assert len(dispatches) == delta[("repro_engine_dispatch_seconds", ())]
        assert all(c.parent_id == run.span_id and c.trace_id == run.trace_id
                   for c in dispatches)
        assert {r["event"] for r in records} == {
            "session.start", "input.dispatch", "binding.fired",
            "scenario.switch", "game.end"}
        assert {r["level"] for r in records} == {"debug"}
        assert {r["trace_id"] for r in records} == {run.trace_id}


class TestSessionInstrumentation:
    def test_lifecycle_counters(self, live, classroom_game):
        engine = classroom_game.new_engine(with_video=False)
        s0 = _value("repro_session_started_total")
        a0 = _value("repro_session_active")
        f0 = _value("repro_session_finished_total", outcome="None")
        rec = SessionRecorder(engine.bus, player_id="p1")
        assert _value("repro_session_started_total") == s0 + 1
        assert _value("repro_session_active") == a0 + 1
        rec.finish(duration=1.0, outcome=None, final_score=0, scenarios_visited=1)
        assert _value("repro_session_active") == a0
        assert _value("repro_session_finished_total", outcome="None") == f0 + 1
        # double-finish is idempotent
        rec.finish(duration=1.0, outcome=None, final_score=0, scenarios_visited=1)
        assert _value("repro_session_finished_total", outcome="None") == f0 + 1

    def test_recorder_failure_counted_not_swallowed(self, live, classroom_game):
        """A broken recorder raises SessionError, and the failure is
        visible on the error counter even after bus quarantine eats it."""
        engine = classroom_game.new_engine(with_video=False)
        rec = SessionRecorder(engine.bus, player_id="broken")
        rec.log.topic_counts = None  # sabotage the aggregation step
        e0 = _value("repro_session_errors_total")
        b0 = _value("repro_bus_subscriber_errors_total")
        with pytest.raises(SessionError):
            rec._on_notice(engine.bus.publish("noop", {}))  # direct: raises
        # Published through the bus, the quarantine machinery swallows the
        # raise — but every failure still lands on the counters.
        for _ in range(engine.bus.max_errors):
            engine.bus.publish("interaction", {"gesture": "click"})
        assert rec.error_count >= engine.bus.max_errors
        assert _value("repro_session_errors_total") > e0
        assert _value("repro_bus_subscriber_errors_total") > b0
        q0 = _value("repro_bus_quarantined_total")
        assert q0 >= 1  # the broken recorder was dropped, and counted


class TestNetInstrumentation:
    def test_stream_metrics(self, live, classroom_game):
        reader = VideoReader(classroom_game.container)
        graph = build_graph(
            classroom_game.scenarios, classroom_game.events, classroom_game.start
        )
        sw0 = _value("repro_stream_switches_total")
        by0 = obs.get_registry().get("repro_stream_bytes_fetched_total").total()
        stats = StreamSession(
            reader, graph, Channel(bandwidth_bps=1e5, latency_s=0.1),
            policy="successors",
        ).play_path([("classroom", 5.0), ("market", 5.0), ("classroom", 1.0)])
        assert _value("repro_stream_switches_total") == sw0 + 3
        delta_bytes = (
            obs.get_registry().get("repro_stream_bytes_fetched_total").total() - by0
        )
        assert delta_bytes == stats.bytes_fetched
        hist = obs.get_registry().get("repro_stream_startup_delay_seconds")
        assert hist.count_of() >= 3

    def test_cache_metrics(self, live):
        c0 = _value("repro_cache_hits_total", policy="lru")
        m0 = _value("repro_cache_misses_total", policy="lru")
        cache = SegmentCache(100, policy="lru")
        cache.access(1, 60)
        cache.access(1, 60)
        cache.access(2, 60)  # evicts 1
        assert _value("repro_cache_hits_total", policy="lru") == c0 + 1
        assert _value("repro_cache_misses_total", policy="lru") == m0 + 2
        assert _value("repro_cache_evictions_total", policy="lru") >= 1


class TestParallelInstrumentation:
    def test_diff_signal_records_run(self, live, flat_clip):
        from repro.video.parallel import parallel_difference_signal

        r0 = obs.get_registry().get("repro_parallel_runs_total").total()
        _signal, stats = parallel_difference_signal(flat_clip.frames, max_workers=1)
        assert obs.get_registry().get("repro_parallel_runs_total").total() == r0 + 1
        util = _value("repro_parallel_worker_utilization", kind="diff_signal")
        assert 0.0 < util <= 1.0
        assert stats.workers_used >= 1


class TestDisabledIsInert:
    def test_no_series_recorded_when_disabled(self, classroom_game):
        obs.disable()
        snap_before = obs.snapshot()
        engine = classroom_game.new_engine(with_video=False)
        engine.start()
        engine.handle_input(MouseClick(35.0, 25.0, button="right"))
        engine.tick(0.1)
        assert obs.snapshot() == snap_before
