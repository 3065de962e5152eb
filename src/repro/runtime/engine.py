"""The VGBL runtime engine: the augmented video player of §4.3.

"The gaming platform is an augmented video player with the interaction
functionalities.  The users can manipulate the avatar in a game scenario
and make interactions with the interactive objects."

The engine wires everything together:

* a :class:`~repro.video.player.SegmentPlayer` plays the active
  scenario's video segment (looping while the player explores);
* raw input events are interpreted into gestures
  (:mod:`repro.runtime.inputs`) and resolved against the authored event
  table;
* matched bindings' actions are executed (scenario switches, popups,
  items, flags, bonuses, dialogues, game end);
* every observable step is published on the bus for the session
  recorder / analytics / TUI;
* :meth:`render` composites the current output frame.

What an engine reads of its game but never writes (item and reward
names, base properties, each scenario's objects in z-order) is one
:class:`GameTable`, built once per game and shared by all its engines.
An engine that moves an object first copies that object's scenario, so
a compiled game stays as authored while its sessions play it.

The engine is deliberately headless and clock-driven: a human UI, a
simulated student (:mod:`repro.students`) and the benchmarks all drive it
through the same three calls — ``handle_input``, ``tick``, ``render``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..obs import tracing as _obstrace
from ..events import (
    Action,
    AwardBonus,
    EndGame,
    EventBus,
    EventTable,
    GiveItem,
    OpenWeb,
    PopupImage,
    SetFlag,
    SetObjectVisible,
    SetProperty,
    ShowText,
    StartDialogue,
    SwitchScenario,
    TakeItem,
    Trigger,
)
from ..graph import Scenario
from ..objects import InteractiveObject
from ..video.container import VideoReader
from ..video.frame import Frame, FrameSize
from ..video.player import Clock, SegmentPlayer, SimulatedClock
from .compositor import Compositor
from .dialogue import Dialogue, DialogueSession
from .inputs import (
    Gesture,
    GestureKind,
    InputEvent,
    MouseClick,
    MouseDrag,
    UiLayout,
    hit_order,
    interpret,
)
from .inventory import InventoryError
from .rewards import RewardManager
from .state import GameState

__all__ = ["EngineError", "GameEngine", "GameTable", "build_game_table"]

_M_DISPATCH = _obs.histogram(
    "repro_engine_dispatch_seconds",
    "Latency of one handle_input call: interpret, match, execute",
)
_M_INTERACTIONS = _obs.counter(
    "repro_engine_interactions_total",
    "Raw input events dispatched, by interpreted gesture kind",
)
_M_TRANSITIONS = _obs.counter(
    "repro_engine_transitions_total",
    "Scenario switches executed (the paper's segment changes)",
).labels()
_M_BINDINGS_FIRED = _obs.counter(
    "repro_engine_bindings_fired_total",
    "Event bindings whose actions ran, by trigger kind",
)
#: per-op label children, bound once
_M_INTERACTIONS_BY = {k: _M_INTERACTIONS.labels(gesture=k) for k in GestureKind.ALL}
_M_BINDINGS_FIRED_BY = {t: _M_BINDINGS_FIRED.labels(trigger=t) for t in Trigger.ALL}

_LOG = _obslog.get_logger("engine")


class EngineError(RuntimeError):
    """Raised on invalid engine operations."""


@dataclass(frozen=True)
class GameTable:
    """What every engine of a game reads of its scenarios, built once.

    Engines share one table and never write to it (nor to the scenarios
    it was built from: see :meth:`GameEngine._own_scenario`).
    """

    item_names: Dict[str, str]
    reward_names: Dict[str, str]
    reward_bonuses: Dict[str, int]
    #: authored object properties, injected into each state at start
    base_props: Dict[Tuple[str, str], Any]
    #: per scenario id: its objects in ascending z-order (paint order)
    objects: Dict[str, Tuple[InteractiveObject, ...]]
    #: per scenario id: its objects in hit-test order (:func:`hit_order`)
    hits: Dict[str, Tuple[InteractiveObject, ...]]


def build_game_table(scenarios: Dict[str, Scenario]) -> GameTable:
    """The :class:`GameTable` of a game's scenarios."""
    table = GameTable({}, {}, {}, {}, {}, {})
    for sid, sc in scenarios.items():
        objects = table.objects[sid] = tuple(sc.objects)
        table.hits[sid] = hit_order(sc)
        for obj in objects:
            table.item_names[obj.object_id] = obj.name
            if obj.kind == "reward":
                table.reward_names[obj.object_id] = obj.name
                table.reward_bonuses[obj.object_id] = getattr(obj, "bonus", 0)
            for key, value in obj.properties.items():
                table.base_props[(obj.object_id, key)] = value
    return table


class GameEngine:
    """One play session over a compiled game.

    Parameters
    ----------
    scenarios:
        All scenarios by id.
    events:
        The authored event table.
    start:
        Starting scenario id.
    reader:
        Optional RVID container; when None the engine runs video-less
        (cohort simulations that only need game logic).
    dialogues:
        Conversation trees by dialogue id.
    clock:
        Time source shared with the player; defaults to a fresh
        :class:`SimulatedClock`.
    frame_size:
        Output frame size; defaults to the container's size, or 320x240
        when running video-less.
    table:
        The game's :class:`GameTable`; built from ``scenarios`` when
        omitted (``CompiledGame.new_engine`` passes its own, built once).
    """

    def __init__(
        self,
        scenarios: Dict[str, Scenario],
        events: EventTable,
        start: str,
        reader: Optional[VideoReader] = None,
        dialogues: Optional[Dict[str, Dialogue]] = None,
        clock: Optional[Clock] = None,
        frame_size: Optional[FrameSize] = None,
        inventory_capacity: int = 12,
        table: Optional[GameTable] = None,
    ) -> None:
        if start not in scenarios:
            raise EngineError(f"start scenario {start!r} not defined")
        if table is None:
            table = build_game_table(scenarios)
        self._table = table
        #: the game's scenarios, except that each scenario this engine
        #: moved an object on is this engine's own copy
        self.scenarios = scenarios
        self._objects = table.objects
        self._hits = table.hits
        self._copied: Set[str] = set()
        self.events = events
        self.dialogues = dict(dialogues or {})
        self.clock: Clock = clock or SimulatedClock()
        self.bus = EventBus()
        self.reader = reader
        if frame_size is None:
            frame_size = reader.size if reader is not None else FrameSize(320, 240)
        self.frame_size = frame_size
        self.layout = UiLayout.default_for(frame_size.width, frame_size.height)
        self.compositor = Compositor(self.layout)
        self.state = GameState(start, inventory_capacity=inventory_capacity)
        self.rewards = RewardManager(
            reward_names=table.reward_names,
            reward_bonuses=table.reward_bonuses,
        )
        self.player: Optional[SegmentPlayer] = (
            SegmentPlayer(reader, clock=self.clock) if reader is not None else None
        )
        self.dialogue_session: Optional[DialogueSession] = None
        self._started = False
        #: count of interactions handled (E4 latency accounting)
        self.interactions_handled = 0

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _inject_base_props(self) -> None:
        self.state.base_props.update(self._table.base_props)

    def _own_scenario(self) -> Scenario:
        """The current scenario as this engine's own copy, made on first
        use: the game's scenarios are shared by every engine playing it,
        so one session's move must not move the object for the others."""
        sid = self.state.current_scenario
        if sid not in self._copied:
            if not self._copied:
                self.scenarios = dict(self.scenarios)
                self._objects = dict(self._objects)
                self._hits = dict(self._hits)
            sc = self.scenarios[sid] = self.scenarios[sid].copy()
            self._objects[sid] = tuple(sc.objects)
            self._hits[sid] = hit_order(sc)
            self._copied.add(sid)
        return self.scenarios[sid]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the session: load props, start video, fire ENTER."""
        if self._started:
            raise EngineError("engine already started")
        self._started = True
        self._inject_base_props()
        self.state.avatar_xy = (
            self.frame_size.width / 2.0,
            self.frame_size.height * 0.75,
        )
        if self.player is not None:
            sc = self.current_scenario
            self.player.loop_segment = sc.loop
            self.player.play(sc.segment_ref)
        self.bus.publish(
            "scenario",
            {"scenario_id": self.state.current_scenario, "via": "start"},
            time=self.clock.now(),
        )
        if _obstrace.in_trace():
            _LOG.debug("session.start", scenario=self.state.current_scenario)
        self._fire(Trigger.ENTER, object_id=None, item_id=None)

    @property
    def current_scenario(self) -> Scenario:
        return self.scenarios[self.state.current_scenario]

    @property
    def running(self) -> bool:
        return self._started and not self.state.finished

    # ------------------------------------------------------------------
    # Input handling
    # ------------------------------------------------------------------
    def handle_input(self, event: InputEvent) -> Gesture:
        """Interpret and act on one raw input event; returns the gesture.

        Metrics count every dispatch; the ``engine.dispatch`` span and
        its record are opened only inside a trace (see
        :func:`repro.obs.tracing.in_trace`).
        """
        if not self._started:
            raise EngineError("call start() before handling input")
        if self.state.finished:
            return Gesture(kind=GestureKind.NONE)
        if not _obs.enabled():
            return self._dispatch(event)
        t0 = perf_counter()
        if _obstrace.in_trace():
            with _obstrace.span("engine.dispatch") as sp:
                gesture = self._dispatch(event)
                sp.set_attribute("gesture", gesture.kind)
                sp.set_attribute("scenario", self.state.current_scenario)
                _LOG.debug(
                    "input.dispatch",
                    gesture=gesture.kind,
                    object_id=gesture.object_id,
                    item_id=gesture.item_id,
                    scenario=self.state.current_scenario,
                )
        else:
            gesture = self._dispatch(event)
        _M_DISPATCH.observe(perf_counter() - t0)
        _M_INTERACTIONS_BY[gesture.kind].inc()
        return gesture

    def _dispatch(self, event: InputEvent) -> Gesture:
        """Interpret, publish and handle one event (no instrumentation)."""
        sid = self.state.current_scenario
        gesture = interpret(
            event, self.scenarios[sid], self.state, self.layout, self._hits[sid]
        )
        self.interactions_handled += 1
        payload = {
            "gesture": gesture.kind,
            "object_id": gesture.object_id,
            "item_id": gesture.item_id,
            "scenario_id": self.state.current_scenario,
        }
        # Coordinates (clicks and drag origins) feed the interaction
        # heatmaps in repro.learning.heatmap.
        if isinstance(event, MouseClick):
            payload["x"], payload["y"] = event.x, event.y
        elif isinstance(event, MouseDrag):
            payload["x"], payload["y"] = event.x0, event.y0
        self.bus.publish("interaction", payload, time=self.clock.now())
        handler = {
            GestureKind.CLICK: self._on_click,
            GestureKind.EXAMINE: self._on_examine,
            GestureKind.TALK: self._on_talk,
            GestureKind.USE_ITEM: self._on_use_item,
            GestureKind.TAKE: self._on_take,
            GestureKind.MOVE: self._on_move,
            GestureKind.SELECT_SLOT: self._on_select_slot,
            GestureKind.DISMISS: self._on_dismiss,
            GestureKind.AVATAR: self._on_avatar,
            GestureKind.NONE: lambda g: None,
        }[gesture.kind]
        handler(gesture)
        return gesture

    def _on_click(self, g: Gesture) -> None:
        fired = self._fire(Trigger.CLICK, g.object_id, None)
        if not fired:
            # Unbound click: surface the examine description as feedback,
            # so every object responds to the player somehow.
            obj = self.current_scenario.get_object(g.object_id)
            if obj.description:
                self._popup("text", obj.description)

    def _on_examine(self, g: Gesture) -> None:
        fired = self._fire(Trigger.EXAMINE, g.object_id, None)
        if not fired:
            obj = self.current_scenario.get_object(g.object_id)
            text = obj.description or f"It is {obj.name}."
            self._popup("text", text)

    def _on_talk(self, g: Gesture) -> None:
        self._fire(Trigger.TALK, g.object_id, None)
        obj = self.current_scenario.get_object(g.object_id)
        dialogue_id = getattr(obj, "dialogue_id", None)
        if dialogue_id and self.dialogue_session is None:
            self._open_dialogue(dialogue_id)

    def _on_use_item(self, g: Gesture) -> None:
        fired = self._fire(Trigger.USE_ITEM, g.object_id, g.item_id)
        self.state.inventory.deselect()
        if not fired:
            self._popup("text", "Nothing happens.")

    def _on_take(self, g: Gesture) -> None:
        obj = self.current_scenario.get_object(g.object_id)
        try:
            self.state.inventory.add(obj.object_id, name=obj.name)
        except InventoryError:
            self._popup("text", "The backpack is full.")
            return
        self.state.visibility[obj.object_id] = False
        self.compositor.invalidate()
        self.bus.publish(
            "item",
            {"item_id": obj.object_id, "via": "take"},
            time=self.clock.now(),
        )
        self._fire(Trigger.TAKE, g.object_id, None)

    def _on_move(self, g: Gesture) -> None:
        obj = self._own_scenario().get_object(g.object_id)
        assert g.move_to is not None
        obj.move_to(*g.move_to)
        self.compositor.invalidate()
        self.bus.publish(
            "move",
            {"object_id": g.object_id, "to": list(g.move_to)},
            time=self.clock.now(),
        )

    def _on_select_slot(self, g: Gesture) -> None:
        slots = self.state.inventory.slots
        assert g.slot_index is not None
        if 0 <= g.slot_index < len(slots):
            item = slots[g.slot_index].item_id
            if self.state.inventory.selected == item:
                self.state.inventory.deselect()
            else:
                self.state.inventory.select(item)
        else:
            self.state.inventory.deselect()

    def _on_dismiss(self, g: Gesture) -> None:
        self.state.dismiss_popup()
        if self.dialogue_session is not None and not self.state.popups:
            # Dialogue popups are re-pushed per node; dismissing a
            # terminal node's line closes the conversation.
            if self.dialogue_session.current_node.terminal:
                self.dialogue_session.choose(0)
            if not self.dialogue_session.active:
                self.dialogue_session = None

    def _on_avatar(self, g: Gesture) -> None:
        assert g.avatar_delta is not None
        ax, ay = self.state.avatar_xy
        nx = min(max(ax + g.avatar_delta[0], 0.0), float(self.frame_size.width - 1))
        ny = min(max(ay + g.avatar_delta[1], 0.0), float(self.frame_size.height - 1))
        self.state.avatar_xy = (nx, ny)
        self._check_approach(nx, ny)

    def _check_approach(self, x: float, y: float) -> None:
        """Fire the approach trigger for objects the avatar just entered.

        Fires once per object per scenario visit (leaving and re-entering
        the scenario re-arms it); invisible objects are not approachable.
        """
        for obj in self._objects[self.state.current_scenario]:
            if obj.object_id in self.state.approached:
                continue
            if not self.state.object_visible(obj.object_id, obj.visible):
                continue
            if obj.hotspot.contains(x, y):
                self.state.approached.add(obj.object_id)
                self._fire(Trigger.APPROACH, obj.object_id, None)
                if self.state.finished:
                    return

    # ------------------------------------------------------------------
    # Dialogue
    # ------------------------------------------------------------------
    def _open_dialogue(self, dialogue_id: str) -> None:
        dlg = self.dialogues.get(dialogue_id)
        if dlg is None:
            raise EngineError(f"object references unknown dialogue {dialogue_id!r}")
        self.dialogue_session = DialogueSession(dlg)
        self._popup("dialogue", self.dialogue_session.current_node.line)
        self.bus.publish(
            "dialogue",
            {"dialogue_id": dialogue_id, "node": dlg.root},
            time=self.clock.now(),
        )

    def choose_dialogue(self, index: int) -> None:
        """Take a reply choice in the open conversation."""
        if self.dialogue_session is None:
            raise EngineError("no conversation is open")
        self.state.dismiss_popup()
        actions = self.dialogue_session.choose(index)
        if self.dialogue_session.active:
            self._popup("dialogue", self.dialogue_session.current_node.line)
            self.bus.publish(
                "dialogue",
                {
                    "dialogue_id": self.dialogue_session.dialogue.dialogue_id,
                    "node": self.dialogue_session.current_node.node_id,
                },
                time=self.clock.now(),
            )
        else:
            self.dialogue_session = None
        self._execute(actions, source="dialogue")

    # ------------------------------------------------------------------
    # Event firing / action execution
    # ------------------------------------------------------------------
    def fire(
        self,
        trigger: str,
        object_id: Optional[str] = None,
        item_id: Optional[str] = None,
    ) -> bool:
        """Public trigger injection for tools (validator, solver, tests).

        Matches and executes bindings exactly as an interpreted gesture
        would, bypassing gesture geometry.  Returns True if any binding
        fired.
        """
        return self._fire(trigger, object_id, item_id)

    def execute_actions(self, actions: Sequence[Action], source: str) -> None:
        """Public action execution for tools (solver dialogue replay)."""
        self._execute(actions, source)

    def _fire(self, trigger: str, object_id: Optional[str], item_id: Optional[str]) -> bool:
        """Match and execute bindings; returns True if any fired."""
        matched = self.events.match(
            self.state.current_scenario,
            trigger,
            object_id=object_id,
            item_id=item_id,
            ctx=self.state,
            exclude_ids=self.state.fired_once,
        )
        for binding in matched:
            if binding.once:
                self.state.fired_once.add(binding.binding_id)
            _M_BINDINGS_FIRED_BY[trigger].inc()
            if _obstrace.in_trace():
                _LOG.debug(
                    "binding.fired",
                    binding_id=binding.binding_id,
                    trigger=trigger,
                    object_id=object_id,
                    item_id=item_id,
                    scenario=self.state.current_scenario,
                )
            self.bus.publish(
                "binding",
                {"binding_id": binding.binding_id, "trigger": trigger},
                time=self.clock.now(),
            )
            self._execute(binding.actions, source=binding.binding_id)
            if self.state.finished:
                break
        return bool(matched)

    def _execute(self, actions: Sequence[Action], source: str) -> None:
        for action in actions:
            if self.state.finished:
                return
            self._execute_one(action, source)

    def _execute_one(self, action: Action, source: str) -> None:
        now = self.clock.now()
        self.bus.publish("action", {"kind": action.kind, "source": source}, time=now)
        if isinstance(action, SwitchScenario):
            if action.target not in self.scenarios:
                raise EngineError(
                    f"binding {source!r} switches to unknown scenario "
                    f"{action.target!r}"
                )
            _M_TRANSITIONS.inc()
            if _obstrace.in_trace():
                _LOG.debug(
                    "scenario.switch",
                    src=self.state.current_scenario,
                    dst=action.target,
                    via=source,
                )
            self.state.switch_to(action.target)
            sc = self.scenarios[action.target]
            if self.player is not None:
                self.player.loop_segment = sc.loop
                self.player.play(sc.segment_ref)
            self.compositor.invalidate()
            self.bus.publish(
                "scenario", {"scenario_id": action.target, "via": source}, time=now
            )
            self._fire(Trigger.ENTER, object_id=None, item_id=None)
        elif isinstance(action, ShowText):
            self._popup("text", action.text)
        elif isinstance(action, PopupImage):
            self._popup("image", action.object_id)
        elif isinstance(action, OpenWeb):
            self.state.web_visits.append(action.url)
            self._popup("web", action.url)
            self.bus.publish("web", {"url": action.url}, time=now)
        elif isinstance(action, GiveItem):
            try:
                self.state.inventory.add(
                    action.item_id,
                    name=self._table.item_names.get(action.item_id, action.item_id),
                )
            except InventoryError:
                self._popup("text", "The backpack is full.")
            else:
                self.bus.publish("item", {"item_id": action.item_id, "via": "give"}, time=now)
        elif isinstance(action, TakeItem):
            if self.state.inventory.has(action.item_id):
                self.state.inventory.remove(action.item_id)
                self.bus.publish("item", {"item_id": action.item_id, "via": "consume"}, time=now)
        elif isinstance(action, SetFlag):
            self.state.set_flag(action.name, action.value)
        elif isinstance(action, SetProperty):
            self.state.prop_overrides[(action.object_id, action.key)] = action.value
        elif isinstance(action, SetObjectVisible):
            self.state.visibility[action.object_id] = action.visible
            self.compositor.invalidate()
        elif isinstance(action, AwardBonus):
            record = self.rewards.award(self.state, action.points, action.reward_id, now)
            self.bus.publish(
                "reward",
                {
                    "points": record.points,
                    "reward_id": record.reward_id,
                    "repeated": record.repeated,
                },
                time=now,
            )
        elif isinstance(action, StartDialogue):
            self._open_dialogue(action.dialogue_id)
        elif isinstance(action, EndGame):
            self.state.end(action.outcome)
            if _obstrace.in_trace():
                _LOG.debug(
                    "game.end",
                    outcome=action.outcome,
                    score=self.state.score,
                    via=source,
                )
            self.bus.publish("end", {"outcome": action.outcome}, time=now)
        else:
            raise EngineError(f"engine cannot execute action kind {action.kind!r}")

    def _popup(self, kind: str, content: str) -> None:
        self.state.push_popup(kind, content, self.clock.now())
        self.bus.publish("popup", {"kind": kind, "content": content}, time=self.clock.now())

    # ------------------------------------------------------------------
    # Time and rendering
    # ------------------------------------------------------------------
    def tick(self, dt: float) -> None:
        """Advance simulated time: playback, timers, auto-advance."""
        if not self._started:
            raise EngineError("call start() before tick()")
        if self.state.finished:
            return
        if isinstance(self.clock, SimulatedClock):
            self.clock.advance(dt)
        self.state.advance_time(dt)
        if self.player is not None:
            self.player.tick()
            if self.player.finished():
                sc = self.current_scenario
                if sc.on_finish is not None:
                    self._execute([SwitchScenario(target=sc.on_finish)], source="on_finish")
                    return
        # Timer bindings for the current scenario.
        for binding in self.events.timers_for(self.state.current_scenario):
            if binding.binding_id in self.state.fired_timers:
                continue
            if self.state.scenario_time >= binding.timer_seconds:
                self.state.fired_timers.add(binding.binding_id)
                if binding.once and binding.binding_id in self.state.fired_once:
                    continue
                if not binding.guard_passes(self.state):
                    continue
                if binding.once:
                    self.state.fired_once.add(binding.binding_id)
                _M_BINDINGS_FIRED_BY[Trigger.TIMER].inc()
                self.bus.publish(
                    "binding",
                    {"binding_id": binding.binding_id, "trigger": Trigger.TIMER},
                    time=self.clock.now(),
                )
                self._execute(binding.actions, source=binding.binding_id)
                if self.state.finished:
                    return

    def render(self) -> Frame:
        """Composite the current output frame (video or blank base)."""
        if self.player is not None:
            base = self.player.current_frame()
        else:
            base = Frame.blank(self.frame_size, (12, 12, 16))
        return self.compositor.compose(base, self.current_scenario, self.state)
