"""Unit tests for request-trace phase attribution (request roots in repro.obs.tracing)."""

import sys
import threading

import pytest

from repro import obs
from repro.obs.tracing import (
    PHASES,
    Sampler,
    Span,
    Tracer,
    get_tracer,
    new_id,
)


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    obs.reset()
    yield obs
    obs.reset()
    obs.set_enabled(was)


def _value(name, **labels):
    metric = obs.get_registry().get(name)
    assert metric is not None, f"metric {name} not registered"
    return metric.value(**labels)


class TestSampler:
    def test_zero_rate_never_fires(self):
        s = Sampler(0.0)
        assert not any(s() for _ in range(100))

    def test_full_rate_always_fires(self):
        s = Sampler(1.0)
        assert all(s() for _ in range(100))

    def test_one_percent_is_one_in_a_hundred(self):
        s = Sampler(0.01)
        hits = [i for i in range(300) if s()]
        assert hits == [0, 100, 200]

    def test_deterministic_across_instances(self):
        a, b = Sampler(0.25), Sampler(0.25)
        assert [a() for _ in range(40)] == [b() for _ in range(40)]

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Sampler(-0.1)
        with pytest.raises(ValueError):
            Sampler(1.5)

    def test_thread_safe_counting(self):
        s = Sampler(0.1)  # period 10
        hits = []

        def worker():
            local = sum(1 for _ in range(1000) if s())
            hits.append(local)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(hits) == 4000 // 10


class TestRequestTrace:
    def test_marks_partition_wall_time(self):
        tr = Span.request("t1", "p1")
        for i, phase in enumerate(PHASES):
            tr.mark(phase, at=tr.start + 0.01 * (i + 1))
        timeline = tr.timeline()
        assert [p["phase"] for p in timeline["phases"]] == list(PHASES)
        # each segment starts where the previous one ended: no gaps
        edge = 0.0
        for p in timeline["phases"]:
            assert p["start_s"] == pytest.approx(edge, abs=1e-9)
            edge = p["start_s"] + p["duration_s"]
        total = sum(p["duration_s"] for p in timeline["phases"])
        assert total == pytest.approx(0.05, abs=1e-9)

    def test_phase_totals_merge_repeated_marks(self):
        tr = Span.request("t2", None)
        tr.mark("flush", at=tr.start + 0.01)
        tr.mark("flush", at=tr.start + 0.03)
        assert tr.phase_totals() == {"flush": pytest.approx(0.03)}

    def test_open_trace_reports_open_status(self):
        tr = Span.request("t3", None)
        assert tr.timeline()["status"] == "open"

    def test_clock_regression_clamps_to_zero(self):
        tr = Span.request("t4", None)
        assert tr.mark("accept", at=tr.start - 1.0) == 0.0


class TestTraceStore:
    def test_start_refused_when_obs_disabled(self):
        was = obs.enabled()
        obs.set_enabled(False)
        try:
            store = Tracer()
            assert not store.start("tid", player="p")
            assert store.open_count == 0
        finally:
            obs.set_enabled(was)

    def test_lifecycle_and_metrics(self, live):
        store = Tracer()
        assert store.start("tid-1", player="p1", source="test")
        assert _value("repro_trace_open") == 1
        store.mark("tid-1", "accept")
        store.mark("tid-1", "flush")
        finished = store.finish("tid-1", status="ok")
        assert finished is not None
        assert finished.status == "ok"
        assert _value("repro_trace_open") == 0
        assert _value("repro_trace_requests_total", status="ok") == 1
        timeline = store.get("tid-1")
        assert timeline["status"] == "ok"
        assert timeline["attributes"] == {"source": "test"}
        assert [p["phase"] for p in timeline["phases"]] == ["accept", "flush"]

    def test_duplicate_id_refused(self, live):
        store = Tracer()
        assert store.start("dup")
        assert not store.start("dup")
        store.finish("dup")
        # finished ids stay reserved while remembered
        assert not store.start("dup")

    def test_finish_is_idempotent(self, live):
        store = Tracer()
        store.start("once")
        assert store.finish("once") is not None
        assert store.finish("once") is None
        assert _value("repro_trace_requests_total", status="ok") == 1

    def test_marks_on_unknown_ids_are_noops(self, live):
        store = Tracer()
        store.mark("ghost", "accept")
        store.annotate("ghost", a=1)
        store.increment("ghost", "n")
        store.mark(None, "accept")
        assert store.finish("ghost") is None
        assert store.get("ghost") is None

    def test_open_overflow_orphans_oldest(self, live):
        store = Tracer(max_open=2)
        store.start("a")
        store.start("b")
        store.start("c")  # evicts "a"
        assert store.open_count == 2
        assert _value("repro_trace_orphaned_total") == 1
        assert store.get("a")["status"] == "orphaned"

    def test_abandon_counts_an_orphan(self, live):
        store = Tracer()
        store.start("gone")
        store.abandon("gone")
        assert store.open_count == 0
        assert _value("repro_trace_orphaned_total") == 1
        assert _value("repro_trace_open") == 0
        assert store.get("gone")["status"] == "orphaned"

    def test_finished_table_ages_out_oldest(self, live):
        store = Tracer(max_finished=2)
        for tid in ("t1", "t2", "t3"):
            store.start(tid)
            store.finish(tid)
        assert store.finished_ids() == ["t2", "t3"]
        assert store.latest() == "t3"
        assert store.get("t1") is None

    def test_increment_accumulates(self, live):
        store = Tracer()
        store.start("n")
        store.increment("n", "live_inputs")
        store.increment("n", "live_inputs", amount=2)
        store.finish("n")
        assert store.get("n")["attributes"]["live_inputs"] == 3

    def test_clear_drops_everything_without_orphans(self, live):
        store = Tracer()
        store.start("open-1")
        store.start("done-1")
        store.finish("done-1")
        store.reset()
        assert store.open_count == 0
        assert store.finished_count == 0
        assert store.latest() is None
        # deliberate teardown is not trace loss
        assert _value("repro_trace_orphaned_total") == 0

    def test_threads_nesting_under_roots_lose_no_update(self, live):
        # more threads than cores and a tiny switch interval: shard
        # threads open children and bump a shared root while a reader
        # serialises timelines, as the telemetry endpoint does
        store = Tracer()
        workers, steps = 8, 200
        store.start("shared")
        for w in range(workers):
            store.start(f"w{w}")
        stop = threading.Event()

        def work(w):
            for _ in range(steps):
                with store.child(f"w{w}", "shard.step"):
                    with store.span("engine.dispatch"):
                        pass
                store.increment("shared", "steps")

        def read():
            while not stop.is_set():
                store.get("shared")
                store.to_json()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
            reader.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stop.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not reader.is_alive() and not any(t.is_alive() for t in threads)
        assert store.get("shared")["attributes"]["steps"] == workers * steps
        for w in range(workers):
            children = store.get(f"w{w}")["children"]
            assert len(children) == steps
            assert all(c["trace_id"] == f"w{w}" for c in children)
            assert all([g["name"] for g in c["children"]] == ["engine.dispatch"]
                       for c in children)


class TestModuleWiring:
    def test_new_trace_id_shape(self):
        tid = new_id()
        assert len(tid) == 16
        int(tid, 16)  # hex
        assert tid != new_id()

    def test_global_store_reset_via_obs(self, live):
        store = get_tracer()
        store.start("global-1")
        store.finish("global-1")
        assert store.finished_count == 1
        obs.reset()
        assert store.finished_count == 0
        assert store.open_count == 0

    def test_obs_exports(self):
        assert obs.get_tracer() is get_tracer()
        assert obs.PHASES == PHASES
