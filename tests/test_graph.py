"""Tests for scenarios and the derived scenario graph."""

import random

import pytest

from repro.events import EventBinding, EventTable, SwitchScenario, Trigger
from repro.graph import GraphError, Scenario, ScenarioError, build_graph
from repro.objects import ImageObject, ItemObject, RectHotspot

HS = RectHotspot(0, 0, 10, 10)


def _click_switch(table, src, obj, dst, condition=""):
    table.add(EventBinding(scenario_id=src, trigger=Trigger.CLICK, object_id=obj,
                           condition=condition,
                           actions=[SwitchScenario(target=dst)]))


class TestScenario:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            Scenario("Bad Id", "t", 0)
        with pytest.raises(ScenarioError):
            Scenario("ok", "", 0)
        with pytest.raises(ScenarioError):
            Scenario("ok", "t", -1)
        with pytest.raises(ScenarioError):
            Scenario("ok", "t", 0, loop=False)  # needs on_finish

    def test_object_management(self):
        sc = Scenario("s", "S", 0)
        sc.add_object(ImageObject(object_id="a", name="a", hotspot=HS))
        assert sc.has_object("a") and len(sc) == 1
        with pytest.raises(ScenarioError):
            sc.add_object(ImageObject(object_id="a", name="dup", hotspot=HS))
        removed = sc.remove_object("a")
        assert removed.object_id == "a"
        with pytest.raises(ScenarioError):
            sc.get_object("a")

    def test_objects_sorted_by_z(self):
        sc = Scenario("s", "S", 0)
        sc.add_object(ImageObject(object_id="top", name="t", hotspot=HS, z_order=5))
        sc.add_object(ImageObject(object_id="bottom", name="b", hotspot=HS, z_order=1))
        assert [o.object_id for o in sc.objects] == ["bottom", "top"]

    def test_object_at_topmost_wins(self):
        sc = Scenario("s", "S", 0)
        sc.add_object(ImageObject(object_id="under", name="u", hotspot=HS, z_order=0))
        sc.add_object(ImageObject(object_id="over", name="o", hotspot=HS, z_order=9))
        assert sc.object_at(5, 5).object_id == "over"

    def test_object_at_skips_invisible(self):
        sc = Scenario("s", "S", 0)
        o = ImageObject(object_id="ghost", name="g", hotspot=HS, visible=False)
        sc.add_object(o)
        assert sc.object_at(5, 5) is None

    def test_dict_roundtrip(self):
        sc = Scenario("s", "S", 2, loop=False, on_finish="next")
        sc.add_object(ItemObject(object_id="i", name="i", hotspot=HS))
        sc2 = Scenario.from_dict(sc.to_dict())
        assert sc2.scenario_id == "s" and sc2.segment_ref == 2
        assert sc2.on_finish == "next" and not sc2.loop
        assert sc2.has_object("i")


class TestBuildGraph:
    def _setup(self):
        scenarios = {
            "a": Scenario("a", "A", 0),
            "b": Scenario("b", "B", 1),
            "c": Scenario("c", "C", 2),
        }
        for sid, sc in scenarios.items():
            sc.add_object(ImageObject(object_id=f"btn-{sid}", name="x", hotspot=HS))
        table = EventTable()
        return scenarios, table

    def test_edges_from_switch_actions(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        _click_switch(table, "b", "btn-b", "c")
        g = build_graph(scenarios, table, "a")
        assert g.successors("a") == ["b"]
        assert g.edge_count == 2
        assert g.reachable() == {"a", "b", "c"}
        assert g.unreachable() == set()

    def test_on_finish_edges(self):
        scenarios, table = self._setup()
        scenarios["a"] = Scenario("a", "A", 0, loop=False, on_finish="b")
        g = build_graph(scenarios, table, "a")
        assert g.successors("a") == ["b"]
        infos = g.out_edges("a")
        assert infos[0].trigger == "on_finish"

    def test_global_binding_edges_from_everywhere(self):
        scenarios, table = self._setup()
        scenarios["a"].add_object(ImageObject(object_id="menu", name="m", hotspot=HS))
        table.add(EventBinding(scenario_id="*", trigger=Trigger.ENTER,
                               actions=[SwitchScenario(target="a")]))
        g = build_graph(scenarios, table, "a")
        for sid in scenarios:
            assert "a" in g.successors(sid)

    def test_unknown_target_rejected(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "nowhere")
        with pytest.raises(GraphError):
            build_graph(scenarios, table, "a")

    def test_unknown_binding_scenario_rejected(self):
        scenarios, table = self._setup()
        _click_switch(table, "zz", "btn-a", "b")
        with pytest.raises(GraphError):
            build_graph(scenarios, table, "a")

    def test_unknown_start_rejected(self):
        scenarios, table = self._setup()
        with pytest.raises(GraphError):
            build_graph(scenarios, table, "zz")

    def test_unreachable_and_dead_ends(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        g = build_graph(scenarios, table, "a")
        assert g.unreachable() == {"c"}
        assert g.dead_ends() == {"b"}

    def test_conditional_edges_marked(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b", condition="flag('x')")
        g = build_graph(scenarios, table, "a")
        assert g.out_edges("a")[0].conditional

    def test_shortest_path(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        _click_switch(table, "b", "btn-b", "c")
        g = build_graph(scenarios, table, "a")
        assert g.shortest_path("c") == ["a", "b", "c"]
        assert g.shortest_path("a") == ["a"]

    def test_shortest_path_none_when_unreachable(self):
        scenarios, table = self._setup()
        g = build_graph(scenarios, table, "a")
        assert g.shortest_path("c") is None
        with pytest.raises(GraphError):
            g.shortest_path("zz")

    def test_distances_from_any_scenario(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        _click_switch(table, "b", "btn-b", "c")
        g = build_graph(scenarios, table, "a")
        assert g.distances("b") == {"b": 0, "c": 1}
        with pytest.raises(GraphError):
            g.distances("zz")

    def test_branching_factor(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        table.add(EventBinding(scenario_id="a", trigger=Trigger.EXAMINE,
                               object_id="btn-a",
                               actions=[SwitchScenario(target="c")]))
        g = build_graph(scenarios, table, "a")
        # a has 2 distinct successors, b and c have 0; reachable = {a,b,c}.
        assert g.branching_factor() == pytest.approx(2 / 3)

    def test_cycles(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        _click_switch(table, "b", "btn-b", "a")
        g = build_graph(scenarios, table, "a")
        cycles = g.cycles()
        assert any(set(c) == {"a", "b"} for c in cycles)

    def test_eccentricity(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        _click_switch(table, "b", "btn-b", "c")
        g = build_graph(scenarios, table, "a")
        assert g.eccentricity_from_start() == {"a": 0, "b": 1, "c": 2}

    def test_to_dot_contains_nodes_and_edges(self):
        scenarios, table = self._setup()
        _click_switch(table, "a", "btn-a", "b")
        dot = build_graph(scenarios, table, "a").to_dot()
        assert '"a"' in dot and '"b" ' in dot or '"a" -> "b"' in dot
        assert "digraph" in dot


# ----------------------------------------------------------------------
# networkx as the reference implementation
# ----------------------------------------------------------------------
N_RANDOM = 150


def _random_graph(seed):
    """A seeded scenario set with parallel edges, self-loops, global
    ``"*"`` bindings, ``on_finish`` edges and, often, unreachable
    scenarios."""
    rng = random.Random(seed)
    ids = [f"s{k}" for k in range(rng.randint(2, 9))]
    scenarios = {}
    for k, sid in enumerate(ids):
        if rng.random() < 0.25:
            scenarios[sid] = Scenario(sid, sid.upper(), k, loop=False,
                                      on_finish=rng.choice(ids))
        else:
            scenarios[sid] = Scenario(sid, sid.upper(), k)
    table = EventTable()
    for _ in range(rng.randint(0, 2 * len(ids))):
        src = "*" if rng.random() < 0.08 else rng.choice(ids)
        table.add(EventBinding(
            scenario_id=src,
            trigger=rng.choice((Trigger.CLICK, Trigger.EXAMINE)),
            object_id="btn",
            condition=rng.choice(("", "flag('x')")),
            actions=[SwitchScenario(target=rng.choice(ids))
                     for _ in range(rng.choice((1, 1, 1, 2)))],
        ))
    return build_graph(scenarios, table, rng.choice(ids))


def _canonical(cycle):
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


class TestAgainstNetworkx:
    @pytest.fixture(scope="class")
    def cases(self):
        nx = pytest.importorskip("networkx")
        out = []
        for seed in range(N_RANDOM):
            g = _random_graph(seed)
            ref = nx.MultiDiGraph()
            ref.add_nodes_from(g.scenarios)
            for e in g.edges:
                ref.add_edge(e.source, e.target, info=e)
            out.append((seed, g, ref, nx))
        return out

    def test_cases_cover_every_edge_shape(self, cases):
        shapes = set()
        for _, g, ref, _nx in cases:
            pairs = [(e.source, e.target) for e in g.edges]
            if len(pairs) > len(set(pairs)):
                shapes.add("parallel")
            if any(s == t for s, t in pairs):
                shapes.add("self-loop")
            if any(e.trigger == "on_finish" for e in g.edges):
                shapes.add("on_finish")
            if g.unreachable():
                shapes.add("unreachable")
            sources = {}
            for e in g.edges:
                if e.binding_id:
                    sources.setdefault(e.binding_id, set()).add(e.source)
            if any(len(v) > 1 for v in sources.values()):
                shapes.add("global")  # only a "*" binding has many sources
        assert shapes == {"parallel", "self-loop", "on_finish",
                          "unreachable", "global"}

    def test_reachable_unreachable_dead_ends(self, cases):
        for seed, g, ref, nx in cases:
            reach = set(nx.descendants(ref, g.start)) | {g.start}
            assert g.reachable() == reach, seed
            assert g.unreachable() == set(g.scenarios) - reach, seed
            assert g.dead_ends() == {
                s for s in reach if ref.out_degree(s) == 0
            }, seed

    def test_successors_and_out_edge_order(self, cases):
        for seed, g, ref, _nx in cases:
            assert g.node_count == ref.number_of_nodes(), seed
            assert g.edge_count == ref.number_of_edges(), seed
            for sid in g.scenarios:
                assert g.successors(sid) == sorted(set(ref.successors(sid))), seed
                assert g.out_edges(sid) == [
                    d["info"] for _, _, d in ref.out_edges(sid, data=True)
                ], seed

    def test_eccentricity_from_start(self, cases):
        for seed, g, ref, nx in cases:
            assert g.eccentricity_from_start() == dict(
                nx.single_source_shortest_path_length(ref, g.start)
            ), seed

    def test_shortest_paths(self, cases):
        for seed, g, ref, nx in cases:
            for target in g.scenarios:
                path = g.shortest_path(target)
                try:
                    expected = nx.shortest_path(ref, g.start, target)
                except nx.NetworkXNoPath:
                    expected = None
                if expected is None:
                    assert path is None, (seed, target)
                    continue
                assert path is not None, (seed, target)
                assert len(path) == len(expected), (seed, target)
                assert path[0] == g.start and path[-1] == target
                assert all(ref.has_edge(a, b) for a, b in zip(path, path[1:]))

    def test_branching_factor(self, cases):
        for seed, g, ref, nx in cases:
            reach = set(nx.descendants(ref, g.start)) | {g.start}
            expected = sum(len(set(ref.successors(s))) for s in reach) / len(reach)
            assert g.branching_factor() == pytest.approx(expected), seed

    def test_cycles(self, cases):
        for seed, g, ref, nx in cases:
            found = [_canonical(c) for c in g.cycles()]
            assert len(found) == len(set(found)), seed  # each cycle once
            assert set(found) == {
                _canonical(list(c)) for c in nx.simple_cycles(nx.DiGraph(ref))
            }, seed
