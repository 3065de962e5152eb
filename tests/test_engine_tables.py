"""Per-game engine work: one shared table per compiled game, objects
moved per engine, timers memoised, and bus notices built only for
subscribers -- with play itself unchanged."""

import pytest

from repro import obs
from repro.core import exploration_game, fetch_quest_game
from repro.events import EventBinding, EventTable, ShowText, SwitchScenario, Trigger
from repro.persist.records import apply_scripted_op, state_digest
from repro.runtime import GameEngine, KeyPress, MouseClick, MouseDrag
from repro.runtime import engine as engine_mod
from repro.core import project as project_mod
from repro.students import cohort_scripts

#: part-0's authored bounding box in fetch_quest_game's place-0
PART_AT = (20, 60, 30, 70)


@pytest.fixture(scope="module")
def quest():
    return fetch_quest_game(n_quests=2).build()


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield
    obs.set_enabled(was)


def _in_place0(game):
    engine = game.new_engine(with_video=False)
    engine.start()
    engine.execute_actions([SwitchScenario(target="place-0")], source="test")
    return engine


def _part_box(engine):
    return engine.current_scenario.get_object("part-0").hotspot.bounding_box()


class TestMovedObjectsStayPerEngine:
    def test_a_drag_moves_the_object_for_its_own_engine_only(self, quest):
        a = _in_place0(quest)
        assert a.handle_input(MouseDrag(25, 65, 5, 5)).kind == "move"
        assert _part_box(a) == (5, 5, 15, 15)
        b = _in_place0(quest)
        assert _part_box(b) == PART_AT
        shared = quest.scenarios["place-0"].get_object("part-0")
        assert shared.hotspot.bounding_box() == PART_AT

    def test_hit_testing_reads_the_engines_copy(self, quest):
        a = _in_place0(quest)
        a.handle_input(MouseDrag(25, 65, 5, 5))
        b = _in_place0(quest)
        assert a.handle_input(MouseClick(8, 8, button="right")).object_id == "part-0"
        assert b.handle_input(MouseClick(8, 8, button="right")).kind == "none"
        assert b.handle_input(MouseClick(25, 65, button="right")).object_id == "part-0"

    def test_approach_checks_read_the_engines_copy(self, quest):
        a = _in_place0(quest)
        b = _in_place0(quest)
        x, y = a.state.avatar_xy
        # drop part-0 just right of the avatar, then walk into it
        a.handle_input(MouseDrag(25, 65, x + 4, y - 4))
        for engine in (a, b):
            engine.handle_input(KeyPress("right"))
        assert "part-0" in a.state.approached
        assert "part-0" not in b.state.approached

    def test_rendering_reads_the_engines_copy(self, quest):
        a = _in_place0(quest)
        b = _in_place0(quest)
        before = a.render().data.copy()
        assert (before == b.render().data).all()
        a.handle_input(MouseDrag(25, 65, 5, 5))
        assert not (a.render().data == before).all()
        assert (b.render().data == before).all()


class TestGameTable:
    def test_new_engine_builds_the_table_once(self, monkeypatch):
        game = fetch_quest_game(n_quests=2).build()
        built = []

        def counting(scenarios):
            built.append(scenarios)
            return engine_mod.build_game_table(scenarios)

        monkeypatch.setattr(project_mod, "build_game_table", counting)
        engines = [game.new_engine(with_video=False) for _ in range(3)]
        assert len(built) == 1
        assert all(e._table is engines[0]._table for e in engines)

    def test_a_direct_engine_builds_the_same_table(self, quest):
        engine = GameEngine(quest.scenarios, quest.events, quest.start)
        assert engine._table == quest.new_engine(with_video=False)._table

    def test_table_holds_objects_in_z_and_hit_order(self, quest):
        table = engine_mod.build_game_table(quest.scenarios)
        for sid, sc in quest.scenarios.items():
            assert list(table.objects[sid]) == sc.objects
            assert list(table.hits[sid]) == sorted(
                sc.objects, key=lambda o: o.z_order, reverse=True)


class TestMemoisedTimers:
    @staticmethod
    def _timer(bid, scenario, seconds):
        return EventBinding(scenario, Trigger.TIMER, [ShowText(text=bid)],
                            timer_seconds=seconds, binding_id=bid)

    def test_add_and_remove_invalidate_the_memo(self):
        table = EventTable([self._timer("late", "s1", 5.0)])
        first = table.timers_for("s1")
        assert [b.binding_id for b in first] == ["late"]
        assert table.timers_for("s1") is first  # memoised
        table.add(self._timer("early", "*", 1.0))
        assert [b.binding_id for b in table.timers_for("s1")] == ["early", "late"]
        table.remove("late")
        assert [b.binding_id for b in table.timers_for("s1")] == ["early"]

    def test_invalidate_cache_after_an_edit_in_place(self):
        table = EventTable([self._timer("a", "s1", 1.0), self._timer("b", "s1", 2.0)])
        assert [b.binding_id for b in table.timers_for("s1")] == ["a", "b"]
        table.get("a").timer_seconds = 3.0
        table.invalidate_cache()
        assert [b.binding_id for b in table.timers_for("s1")] == ["b", "a"]


def _engine_counts():
    """Every repro_engine_* series as a number: counter values and
    histogram observation counts (histogram sums are timings)."""
    out = {}
    for metric in obs.snapshot()["metrics"]:
        if not metric["name"].startswith("repro_engine_"):
            continue
        for series in metric["series"]:
            key = (metric["name"], tuple(sorted(series["labels"].items())))
            out[key] = series["count"] if "count" in series else series["value"]
    return out


@pytest.mark.parametrize("make", [fetch_quest_game, exploration_game])
def test_a_wildcard_subscriber_changes_no_outcome(live, make):
    game = make().build()
    scripts = cohort_scripts(game, 16, seed=3)

    def play(subscribe):
        before = _engine_counts()
        runs = []
        for script in scripts:
            engine = game.new_engine(with_video=False)
            seen = []
            if subscribe:
                engine.bus.subscribe("*", seen.append)
            engine.start()
            for op in script.ops:
                apply_scripted_op(engine, op, script.dt)
            if subscribe:
                assert len(seen) == engine.bus.published_count
            runs.append((state_digest(engine.state), engine.state.outcome,
                         engine.bus.published_count))
        after = _engine_counts()
        return runs, {k: v - before.get(k, 0) for k, v in after.items()}

    play(False)  # fill the match memo, so both measured runs only hit it
    quiet, heard = play(False), play(True)
    assert quiet == heard
    assert any(count for _, _, count in quiet[0])
