"""Tests for structured logging: levels, filtering, trace correlation."""

import json

import pytest

from repro import obs
from repro.obs import logging as olog


@pytest.fixture
def obs_on():
    """Obs enabled with clean logging/flight/tracer state; restores all."""
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    olog.reset_logging()
    yield
    obs.reset()
    olog.reset_logging()
    obs.set_enabled(was)


@pytest.fixture
def captured(obs_on):
    """A list sink receiving every record that passes its level."""
    records = []
    sink = olog.add_log_sink(records.append)
    yield records
    olog.remove_log_sink(sink)


class TestRecordShape:
    def test_basic_fields(self, captured):
        log = olog.get_logger("t.shape")
        log.info("game.start", scenario="classroom", score=0)
        assert len(captured) == 1
        rec = captured[0]
        assert rec["level"] == "info"
        assert rec["logger"] == "t.shape"
        assert rec["event"] == "game.start"
        assert rec["fields"] == {"scenario": "classroom", "score": 0}
        assert isinstance(rec["ts"], float)
        assert isinstance(rec["mono"], float)

    def test_no_fields_key_when_empty(self, captured):
        olog.get_logger("t.shape").warning("bare")
        assert "fields" not in captured[0]

    def test_all_four_levels(self, captured):
        log = olog.get_logger("t.levels")
        log.debug("d")
        log.info("i")
        log.warning("w")
        log.error("e")
        assert [r["level"] for r in captured] == [
            "debug", "info", "warning", "error",
        ]

    def test_get_logger_idempotent(self, obs_on):
        assert olog.get_logger("t.same") is olog.get_logger("t.same")

    def test_records_are_json_serialisable(self, captured):
        olog.get_logger("t.json").info("evt", n=3, name="x")
        json.dumps(captured[0])  # must not raise


class TestLevelFiltering:
    def test_sink_filtered_flight_is_not(self, captured):
        olog.set_log_level("warning")
        log = olog.get_logger("t.filter")
        log.debug("quiet")
        log.info("quiet")
        log.warning("loud")
        assert [r["event"] for r in captured] == ["loud"]
        # The flight recorder retains full verbosity regardless.
        flight_events = [e["event"] for e in obs.get_flight_recorder().events()]
        assert flight_events == ["quiet", "quiet", "loud"]

    def test_dotted_prefix_override(self, captured):
        olog.set_log_level("error")
        olog.set_log_level("debug", "net")
        olog.get_logger("net.cache").debug("cache.evict")
        olog.get_logger("engine").debug("input.dispatch")
        olog.get_logger("engine").error("boom")
        assert [r["event"] for r in captured] == ["cache.evict", "boom"]

    def test_longest_prefix_wins(self, captured):
        olog.set_log_level("debug", "net")
        olog.set_log_level("error", "net.cache")
        olog.get_logger("net.cache").info("hidden")
        olog.get_logger("net.stream").info("shown")
        assert [r["event"] for r in captured] == ["shown"]

    def test_unknown_level_rejected(self, obs_on):
        with pytest.raises(ValueError, match="unknown log level"):
            olog.set_log_level("loud")

    def test_events_counter_counts_passing_only(self, captured):
        olog.set_log_level("warning")
        log = olog.get_logger("t.count")
        log.debug("x")
        log.warning("y")
        counter = obs.get_registry().counter("repro_log_events_total")
        assert counter.value(level="warning") == 1
        assert counter.value(level="debug") == 0


class TestTraceCorrelation:
    def test_ids_stamped_inside_span(self, captured):
        log = olog.get_logger("t.trace")
        with obs.span("outer") as sp:
            log.info("inside")
        log.info("outside")
        inside, outside = captured
        assert inside["trace_id"] == sp.trace_id
        assert inside["span_id"] == sp.span_id
        assert "trace_id" not in outside

    def test_nested_span_ids(self, captured):
        log = olog.get_logger("t.trace")
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                log.info("deep")
        rec = captured[0]
        assert rec["trace_id"] == outer.trace_id == inner.trace_id
        assert rec["span_id"] == inner.span_id

    def test_traced_shard_step_logs_join_the_request_trace(
        self, captured, classroom_game
    ):
        from repro.serve import ServeConfig, SessionManager, session_factory_for_script
        from repro.students import cohort_scripts

        olog.set_log_level("debug")
        store = obs.get_tracer()
        trace_id = obs.new_id()
        assert store.start(trace_id, player="join#0")
        script = cohort_scripts(classroom_game, 1, seed=41)[0]
        build = session_factory_for_script(classroom_game, script)

        def traced(player_id):
            session = build(player_id)
            session.trace_id = trace_id
            return session

        with SessionManager(ServeConfig(
            n_shards=1, tick_interval_s=0.002, max_steps_per_tick=50,
        )) as manager:
            assert manager.submit("join#0", traced)
            assert manager.drain(timeout=30.0)
        # the engine's dispatch log runs on the shard thread, inside the
        # request's shard.step span: it carries the request's trace id
        # and a span id the request's timeline serves
        dispatches = [r for r in captured if r["event"] == "input.dispatch"]
        assert dispatches
        assert {r["trace_id"] for r in dispatches} == {trace_id}
        nested, stack = set(), list(store.get(trace_id)["children"])
        while stack:
            span = stack.pop()
            nested.add(span["span_id"])
            stack.extend(span["children"])
        assert {r["span_id"] for r in dispatches} <= nested


class TestSampling:
    def test_sample_zero_drops_everything(self, captured):
        log = olog.get_logger("t.sample")
        for _ in range(50):
            log.debug("never", sample=0.0)
        assert captured == []

    def test_sample_one_keeps_everything(self, captured):
        log = olog.get_logger("t.sample")
        for _ in range(50):
            log.debug("always", sample=1.0)
        assert len(captured) == 50

    def test_fractional_sample_thins(self, captured):
        log = olog.get_logger("t.sample")
        for _ in range(400):
            log.debug("some", sample=0.25)
        # Deterministic RNG: roughly a quarter survive, never all or none.
        assert 0 < len(captured) < 400


class TestDisabled:
    def test_disabled_logging_is_a_no_op(self, obs_on):
        records = []
        sink = olog.add_log_sink(records.append)
        try:
            obs.set_enabled(False)
            log = olog.get_logger("t.off")
            log.error("invisible", big="payload")
            assert records == []
            assert len(obs.get_flight_recorder()) == 0
        finally:
            obs.set_enabled(True)
            olog.remove_log_sink(sink)


class TestSinks:
    def test_file_sink_writes_jsonl(self, obs_on, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = olog.add_log_file(path)
        try:
            log = olog.get_logger("t.file")
            log.info("one", a=1)
            log.warning("two")
        finally:
            olog.remove_log_sink(sink)
            sink.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["one", "two"]
        assert records[0]["fields"] == {"a": 1}

    def test_raising_sink_is_swallowed_and_counted(self, obs_on):
        def bad_sink(record):
            raise RuntimeError("sink died")

        olog.add_log_sink(bad_sink)
        try:
            olog.get_logger("t.bad").info("survives")
        finally:
            olog.remove_log_sink(bad_sink)
        errors = obs.get_registry().counter("repro_log_sink_errors_total")
        assert errors.total() == 1

    def test_remove_sink_returns_false_when_absent(self, obs_on):
        assert olog.remove_log_sink(lambda r: None) is False


class TestReset:
    def test_obs_reset_clears_flight_and_active_span_state(self, captured):
        log = olog.get_logger("t.reset")
        with obs.span("outer"):
            log.info("before")
            obs.reset()
            # The reset cleared the active span: later records must not
            # carry the stale trace id.
            log.info("after")
        events = obs.get_flight_recorder().events()
        assert [e["event"] for e in events] == ["after"]
        assert "trace_id" not in events[0]
        # The stale outer span was not recorded on exit either.
        assert obs.get_tracer().roots == []

    def test_spans_work_normally_after_interleaved_reset(self, captured):
        log = olog.get_logger("t.reset")
        with obs.span("doomed"):
            obs.reset()
        with obs.span("fresh") as sp:
            log.info("ok")
        assert [s.name for s in obs.get_tracer().roots] == ["fresh"]
        assert captured[-1]["trace_id"] == sp.trace_id

    def test_obs_reset_clears_time_series_ring(self, obs_on):
        ring = obs.get_ring()
        ring.sample()
        ring.sample()
        assert len(ring) == 2
        obs.reset()
        assert len(ring) == 0
        assert ring.samples() == []

    def test_obs_reset_clears_request_traces(self, obs_on):
        store = obs.get_tracer()
        assert store.start("reset-open", player="p1")
        assert store.start("reset-done", player="p2")
        store.mark("reset-done", "accept")
        store.finish("reset-done")
        obs.reset()
        assert store.open_count == 0
        assert store.finished_count == 0
        assert store.get("reset-open") is None
        assert store.get("reset-done") is None
        # the ids are reusable again after the wipe
        assert store.start("reset-open")
        # and the wipe itself counted no orphans
        orphans = obs.get_registry().get("repro_trace_orphaned_total")
        assert orphans.total() == 0

    def test_attribution_works_normally_after_interleaved_reset(self, obs_on):
        store = obs.get_tracer()
        store.start("interleaved")
        obs.reset()
        store.mark("interleaved", "accept")  # stale id: cheap no-op
        assert store.finish("interleaved") is None
        assert store.start("post-reset", player="p")
        store.mark("post-reset", "flush")
        assert store.finish("post-reset").status == "ok"


class TestFormatEvent:
    def test_format_contains_parts(self, obs_on):
        record = {
            "ts": 1_700_000_000.123,
            "level": "warning",
            "logger": "net.cache",
            "event": "cache.refetch",
            "fields": {"segment": 3},
            "trace_id": "aabbccddeeff0011",
            "span_id": "1122334455667788",
        }
        line = olog.format_event(record)
        assert "WARNING" in line
        assert "net.cache" in line
        assert "cache.refetch" in line
        assert "segment=3" in line
        assert "trace=aabbccdd" in line
        assert "span=11223344" in line

    def test_format_handles_missing_keys(self, obs_on):
        line = olog.format_event({})
        assert "--:--:--" in line
