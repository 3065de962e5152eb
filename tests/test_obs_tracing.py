"""Tests for tracing spans: nesting, exception safety, disabled mode."""

import json

import pytest

from repro import obs
from repro.obs.tracing import Tracer, _NULL_CONTEXT


@pytest.fixture
def tracer():
    """A private tracer with recording enabled; restores disabled."""
    was = obs.enabled()
    obs.enable()
    yield Tracer()
    obs.set_enabled(was)


class TestNesting:
    def test_parent_child_structure(self, tracer):
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]

    def test_sequential_roots_all_kept(self, tracer):
        for i in range(3):
            with tracer.span(f"op{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["op0", "op1", "op2"]

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_durations_nest_sanely(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.end is not None and inner.end is not None
        assert outer.duration >= inner.duration >= 0.0

    def test_attributes(self, tracer):
        with tracer.span("op", gesture="click") as sp:
            sp.set_attribute("bindings", 2)
        assert tracer.roots[0].attributes == {"gesture": "click", "bindings": 2}


class TestExceptionSafety:
    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("fails"):
                raise ValueError("boom")
        sp = tracer.roots[0]
        assert sp.status == "error"
        assert sp.error == "ValueError: boom"
        assert sp.end is not None  # end stamped despite the raise

    def test_exception_in_child_unwinds_to_parent(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("child"):
                    raise RuntimeError("inner")
        root = tracer.roots[0]
        assert root.status == "error"
        assert root.children[0].status == "error"
        assert tracer.current() is None  # stack fully unwound

    def test_decorator_traces_and_reraises(self, tracer):
        # The decorator uses the global tracer; check against it.
        g = obs.get_tracer()
        g.reset()

        @obs.trace("decorated")
        def work(x):
            """docstring survives"""
            if x < 0:
                raise KeyError(x)
            return x * 2

        assert work(3) == 6
        with pytest.raises(KeyError):
            work(-1)
        assert work.__doc__ == "docstring survives"
        assert [s.name for s in g.roots] == ["decorated", "decorated"]
        assert g.roots[1].status == "error"
        g.reset()


class TestBoundsAndExport:
    def test_max_finished_drops_oldest(self):
        obs.enable()
        try:
            t = Tracer(max_roots=2)
            for i in range(5):
                with t.span(f"s{i}"):
                    pass
            assert [s.name for s in t.roots] == ["s3", "s4"]
            assert t.dropped == 3
        finally:
            obs.disable()

    def test_iter_spans_depth_first(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert [s.name for s in tracer.iter_spans()] == ["a", "b", "c"]

    def test_to_json_roundtrips(self, tracer):
        with tracer.span("root", kind="demo"):
            with tracer.span("leaf"):
                pass
        data = json.loads(tracer.to_json())
        assert len(data) == 1
        assert data[0]["name"] == "root"
        assert data[0]["status"] == "ok"
        assert data[0]["attributes"] == {"kind": "demo"}
        assert data[0]["children"][0]["name"] == "leaf"
        assert data[0]["duration_s"] >= 0.0

    def test_reset(self, tracer):
        with tracer.span("x"):
            pass
        tracer.reset()
        assert tracer.roots == []
        assert tracer.dropped == 0


class TestDisabledMode:
    def test_span_is_shared_noop_when_disabled(self):
        obs.disable()
        t = Tracer()
        ctx = t.span("ignored")
        assert ctx is _NULL_CONTEXT
        with ctx as sp:
            sp.set_attribute("k", "v")  # accepted, discarded
        assert t.roots == []

    def test_decorator_is_passthrough_when_disabled(self):
        obs.disable()
        g = obs.get_tracer()
        g.reset()

        @obs.trace()
        def fn():
            return 7

        assert fn() == 7
        assert g.roots == []


class TestCorrelationIds:
    def test_root_gets_fresh_trace_id(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id and b.trace_id and a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_children_inherit_trace_id(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grand:
                    pass
        assert child.trace_id == root.trace_id == grand.trace_id
        assert child.parent_id == root.span_id
        assert grand.parent_id == child.span_id
        ids = {root.span_id, child.span_id, grand.span_id}
        assert len(ids) == 3  # span ids are unique

    def test_ids_are_64bit_hex(self, tracer):
        with tracer.span("x") as sp:
            pass
        assert len(sp.span_id) == 16
        int(sp.span_id, 16)  # must parse as hex
        assert len(sp.trace_id) == 16

    def test_to_dict_carries_ids(self, tracer):
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        root = tracer.to_dicts()[0]
        assert root["trace_id"] == root["children"][0]["trace_id"]
        assert root["children"][0]["parent_id"] == root["span_id"]


class TestResetInterleaving:
    """Regression: a reset while spans are open must not resurrect
    pre-reset parents or record stale spans (the generation guard)."""

    def test_span_open_across_reset_unwinds_inertly(self, tracer):
        with tracer.span("outer"):
            tracer.reset()
        assert tracer.roots == []
        assert tracer.current() is None

    def test_new_spans_after_reset_are_roots(self, tracer):
        with tracer.span("doomed"):
            tracer.reset()
            with tracer.span("fresh") as fresh:
                pass
            # The post-reset span is a root: no stale parent attached.
            assert fresh.parent_id is None
        assert [s.name for s in tracer.roots] == ["fresh"]
        # The doomed span's exit must not clobber what came after.
        assert tracer.current() is None
        with tracer.span("later"):
            pass
        assert [s.name for s in tracer.roots] == ["fresh", "later"]

    def test_deep_interleave(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.reset()
                with tracer.span("c"):
                    pass
        assert [s.name for s in tracer.roots] == ["c"]
        assert tracer.current() is None
