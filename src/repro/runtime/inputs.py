"""Input events and gesture interpretation (§3.1).

"Without much difference from other adventure games, mouse and keyboard
are responsible for delivering users' interactions … Players can examine
and move objects in a scenario by clicking or holding their mouse keys."

Raw device events (clicks, drags, key presses — produced by a human UI,
a simulated student, or a TV-style remote via :mod:`repro.net.devices`)
are interpreted into *gestures* against the active scenario's layout:

=====================  ==================================================
Raw event              Gesture
=====================  ==================================================
left click on object   CLICK (or TALK on an NPC; or USE_ITEM when an
                       inventory item is selected)
right click on object  EXAMINE
drag object → window   TAKE (portable objects enter the backpack)
drag object elsewhere  MOVE (reposition draggable objects)
left click on window   select/deselect the clicked inventory slot
arrow keys             move the avatar
=====================  ==================================================

The interpreter is a pure function from (event, scenario, state, layout)
to a :class:`Gesture`; the engine then resolves the gesture into event-
table triggers.  Keeping interpretation pure makes the gesture rules
property-testable in isolation.  Hit-testing probes the scenario's
objects in :func:`hit_order`, which the engine computes once per game.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..graph import Scenario
from ..objects import InteractiveObject
from .state import GameState

__all__ = [
    "Gesture",
    "GestureKind",
    "InputError",
    "KeyPress",
    "MouseClick",
    "MouseDrag",
    "UiLayout",
    "hit_order",
    "interpret",
]


class InputError(ValueError):
    """Raised on malformed input events."""


# ----------------------------------------------------------------------
# Raw events
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MouseClick:
    """A click at frame coordinates; button is "left" or "right"."""

    x: float
    y: float
    button: str = "left"

    def __post_init__(self) -> None:
        if self.button not in ("left", "right"):
            raise InputError(f"unknown mouse button {self.button!r}")


@dataclass(frozen=True, slots=True)
class MouseDrag:
    """Press at (x0, y0), release at (x1, y1) — the "holding" gesture."""

    x0: float
    y0: float
    x1: float
    y1: float


@dataclass(frozen=True, slots=True)
class KeyPress:
    """A key press; arrows move the avatar, digits answer dialogues."""

    key: str

    def __post_init__(self) -> None:
        if not self.key:
            raise InputError("empty key")


InputEvent = object  # MouseClick | MouseDrag | KeyPress (py3.10-friendly alias)


# ----------------------------------------------------------------------
# Layout: where the inventory window sits on the composited frame
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class UiLayout:
    """Geometry of runtime chrome on the output frame.

    The inventory window is a horizontal strip; slot ``i`` occupies
    ``slot_w`` pixels starting at ``inv_x + i*slot_w``.
    """

    frame_w: int
    frame_h: int
    inv_x: int
    inv_y: int
    inv_w: int
    inv_h: int
    slot_w: int = 24

    def in_inventory(self, x: float, y: float) -> bool:
        return (
            self.inv_x <= x < self.inv_x + self.inv_w
            and self.inv_y <= y < self.inv_y + self.inv_h
        )

    def slot_at(self, x: float, y: float) -> Optional[int]:
        """Inventory slot index under (x, y), or None."""
        if not self.in_inventory(x, y):
            return None
        return int((x - self.inv_x) // self.slot_w)

    @classmethod
    def default_for(cls, frame_w: int, frame_h: int) -> "UiLayout":
        """The standard layout: inventory strip along the bottom edge."""
        inv_h = max(20, frame_h // 8)
        return cls(
            frame_w=frame_w,
            frame_h=frame_h,
            inv_x=0,
            inv_y=frame_h - inv_h,
            inv_w=frame_w,
            inv_h=inv_h,
        )


# ----------------------------------------------------------------------
# Gestures
# ----------------------------------------------------------------------

class GestureKind:
    CLICK = "click"              #: click an object
    EXAMINE = "examine"          #: examine an object
    TALK = "talk"                #: click an NPC
    USE_ITEM = "use_item"        #: use selected inventory item on object
    TAKE = "take"                #: drag portable object into the window
    MOVE = "move"                #: reposition a draggable object
    SELECT_SLOT = "select_slot"  #: (de)select an inventory slot
    DISMISS = "dismiss"          #: close the top popup
    AVATAR = "avatar"            #: move the avatar
    NONE = "none"                #: event hit nothing actionable

    ALL = (CLICK, EXAMINE, TALK, USE_ITEM, TAKE, MOVE, SELECT_SLOT,
           DISMISS, AVATAR, NONE)


@dataclass(frozen=True, slots=True)
class Gesture:
    """Interpreted input: kind plus the relevant ids/coordinates."""

    kind: str
    object_id: Optional[str] = None
    item_id: Optional[str] = None
    slot_index: Optional[int] = None
    move_to: Optional[Tuple[float, float]] = None
    avatar_delta: Optional[Tuple[float, float]] = None


_ARROWS = {
    "up": (0.0, -8.0),
    "down": (0.0, 8.0),
    "left": (-8.0, 0.0),
    "right": (8.0, 0.0),
}


def hit_order(scenario: Scenario) -> Tuple[InteractiveObject, ...]:
    """The scenario's objects in the order a hit-test probes them:
    descending z, and mount order among equal z."""
    return tuple(sorted(scenario.objects, key=lambda o: o.z_order, reverse=True))


def interpret(
    event: InputEvent,
    scenario: Scenario,
    state: GameState,
    layout: UiLayout,
    hits: Optional[Sequence[InteractiveObject]] = None,
) -> Gesture:
    """Map a raw input event to a gesture. Pure; no state mutation.

    ``hits`` is ``hit_order(scenario)`` when the caller already holds
    it; otherwise it is computed here.

    Popup modality: while any popup is open, every click dismisses it and
    nothing else happens — matching the runtime's "click to continue".
    """
    if isinstance(event, KeyPress):
        if event.key in _ARROWS:
            return Gesture(kind=GestureKind.AVATAR, avatar_delta=_ARROWS[event.key])
        return Gesture(kind=GestureKind.NONE)

    if hits is None:
        hits = hit_order(scenario)
    if isinstance(event, MouseClick):
        if state.modal_active:
            return Gesture(kind=GestureKind.DISMISS)
        slot = layout.slot_at(event.x, event.y)
        if slot is not None:
            return Gesture(kind=GestureKind.SELECT_SLOT, slot_index=slot)
        obj = _visible_object_at(hits, state, event.x, event.y)
        if obj is None:
            return Gesture(kind=GestureKind.NONE)
        if event.button == "right":
            return Gesture(kind=GestureKind.EXAMINE, object_id=obj.object_id)
        if state.inventory.selected is not None:
            return Gesture(
                kind=GestureKind.USE_ITEM,
                object_id=obj.object_id,
                item_id=state.inventory.selected,
            )
        if obj.kind == "npc":
            return Gesture(kind=GestureKind.TALK, object_id=obj.object_id)
        return Gesture(kind=GestureKind.CLICK, object_id=obj.object_id)

    if isinstance(event, MouseDrag):
        if state.modal_active:
            return Gesture(kind=GestureKind.DISMISS)
        obj = _visible_object_at(hits, state, event.x0, event.y0)
        if obj is None:
            return Gesture(kind=GestureKind.NONE)
        if layout.in_inventory(event.x1, event.y1):
            if obj.portable:
                return Gesture(kind=GestureKind.TAKE, object_id=obj.object_id)
            return Gesture(kind=GestureKind.NONE)
        if obj.draggable:
            return Gesture(
                kind=GestureKind.MOVE,
                object_id=obj.object_id,
                move_to=(event.x1, event.y1),
            )
        return Gesture(kind=GestureKind.NONE)

    raise InputError(f"unknown input event type {type(event).__name__}")


def _visible_object_at(
    hits: Sequence[InteractiveObject], state: GameState, x: float, y: float
) -> Optional[InteractiveObject]:
    """Topmost object at (x, y) honouring per-session visibility."""
    for obj in hits:
        if state.object_visible(obj.object_id, obj.visible) and obj.hotspot.contains(x, y):
            return obj
    return None
