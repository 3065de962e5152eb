"""Tests for the flight recorder: ring bounds, dumps, crash correlation."""

import json
import sys

import pytest

from repro import obs
from repro.obs.recorder import FlightRecorder, install_excepthook, uninstall_excepthook


@pytest.fixture
def obs_on():
    was = obs.enabled()
    obs.set_enabled(True)
    obs.reset()
    yield
    obs.reset()
    obs.set_enabled(was)


class TestRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_retains_last_n_in_order(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record({"event": f"e{i}"})
        events = rec.events()
        assert [e["event"] for e in events] == ["e6", "e7", "e8", "e9"]
        assert len(rec) == 4
        assert rec.dropped == 6
        assert rec.total_recorded == 10

    def test_seq_is_contiguous_tail(self):
        rec = FlightRecorder(capacity=3)
        for i in range(8):
            rec.record({"event": f"e{i}"})
        seqs = [e["seq"] for e in rec.events()]
        assert seqs == [6, 7, 8]

    def test_record_copies_the_input(self):
        rec = FlightRecorder(capacity=2)
        original = {"event": "x"}
        rec.record(original)
        assert "seq" not in original  # input must not be mutated
        original["event"] = "mutated"
        assert rec.events()[0]["event"] == "x"

    def test_clear_zeroes_everything(self):
        rec = FlightRecorder(capacity=2)
        rec.record({"event": "a"})
        rec.record({"event": "b"})
        rec.record({"event": "c"})
        rec.clear()
        assert len(rec) == 0
        assert rec.dropped == 0
        assert rec.total_recorded == 0
        rec.record({"event": "fresh"})
        assert rec.events()[0]["seq"] == 1


class TestDump:
    def test_payload_structure(self, obs_on):
        rec = obs.get_flight_recorder()
        rec.record({"event": "x"})
        payload = rec.payload(reason="test")
        assert payload["reason"] == "test"
        assert payload["capacity"] == rec.capacity
        assert [e["event"] for e in payload["events"]] == ["x"]
        assert payload["metrics"]["enabled"] is True
        assert isinstance(payload["metrics"]["metrics"], list)
        assert isinstance(payload["spans"], list)

    def test_dump_writes_readable_json(self, obs_on, tmp_path):
        rec = obs.get_flight_recorder()
        rec.record({"event": "x"})
        path = rec.dump(tmp_path / "flight.json", reason="test")
        loaded = json.loads(path.read_text())
        assert loaded["reason"] == "test"
        assert [e["event"] for e in loaded["events"]] == ["x"]

    def test_default_path_uses_flight_dir(self, obs_on, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        path = obs.dump_flight(reason="env")
        assert path.parent == tmp_path
        assert path.name.startswith("repro-flight-")


class TestExcepthook:
    def test_install_uninstall_roundtrip(self, monkeypatch):
        sentinel = lambda *a: None  # noqa: E731
        monkeypatch.setattr(sys, "excepthook", sentinel)
        install_excepthook()
        assert sys.excepthook is not sentinel
        install_excepthook()  # idempotent: does not chain to itself
        uninstall_excepthook()
        assert sys.excepthook is sentinel

    def test_hook_dumps_and_chains(self, obs_on, tmp_path, monkeypatch):
        previous_calls = []
        monkeypatch.setattr(
            sys, "excepthook", lambda *a: previous_calls.append(a)
        )
        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        obs.get_flight_recorder().record({"event": "pre-crash"})
        install_excepthook()
        try:
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                exc_info = sys.exc_info()
            sys.excepthook(*exc_info)
        finally:
            uninstall_excepthook()
        assert len(previous_calls) == 1  # the prior hook still ran
        dumps = list(tmp_path.glob("repro-flight-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())
        assert payload["reason"] == "unhandled:RuntimeError"
        assert [e["event"] for e in payload["events"]] == ["pre-crash"]


class TestCrashCorrelation:
    """The ISSUE acceptance criterion: a crash dump from an instrumented
    engine run carries events whose trace/span ids appear in the span
    export of the same dump."""

    def test_engine_crash_dump_ids_match_span_export(
        self, obs_on, tmp_path, monkeypatch, classroom_game
    ):
        from repro.runtime import KeyPress, MouseClick

        engine = classroom_game.new_engine()
        engine.start()
        # engine records and dispatch spans are trace-scoped: drive the
        # engine inside a span, as a traced request's shard step does
        with obs.span("session"):
            engine.handle_input(MouseClick(10.0, 15.0))
            engine.handle_input(KeyPress("right"))

        monkeypatch.setenv("REPRO_FLIGHT_DIR", str(tmp_path))
        monkeypatch.setattr(sys, "excepthook", lambda *a: None)
        install_excepthook()
        try:
            try:
                raise RuntimeError("mid-session crash")
            except RuntimeError:
                sys.excepthook(*sys.exc_info())
        finally:
            uninstall_excepthook()

        dumps = list(tmp_path.glob("repro-flight-*.json"))
        assert len(dumps) == 1
        payload = json.loads(dumps[0].read_text())

        def walk(spans):
            for sp in spans:
                yield sp
                yield from walk(sp.get("children", []))

        span_trace_ids = {s["trace_id"] for s in walk(payload["spans"])}
        span_ids = {s["span_id"] for s in walk(payload["spans"])}
        correlated = [
            e for e in payload["events"] if e.get("trace_id") is not None
        ]
        assert correlated, "instrumented dispatch produced no correlated events"
        for event in correlated:
            assert event["trace_id"] in span_trace_ids
            assert event["span_id"] in span_ids
