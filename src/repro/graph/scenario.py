"""Scenario: one unit of interactive video plus its mounted objects.

§2.1: "Each scenario is considered as a series of continuous shots with
the same place or characters" and, in the platform, "video segments are
the basic unit used for presenting scenarios".

A :class:`Scenario` binds

* an id and a human title,
* a video segment reference (segment index in the project's container),
* the interactive objects mounted on it (z-ordered), and
* presentation metadata (looping, dwell hints).

Scenarios do not know about transitions; those are authored as
``SwitchScenario`` actions in the event table, and the scenario *graph*
(:mod:`repro.graph.graph`) is derived from the pair (scenarios, events).
"""

from __future__ import annotations

import copy
import re
from typing import Any, Dict, Iterator, List, Optional

from ..objects import InteractiveObject, object_from_dict

__all__ = ["Scenario", "ScenarioError"]

_ID_RE = re.compile(r"^[a-z0-9][a-z0-9_\-]*$")


class ScenarioError(ValueError):
    """Raised on invalid scenario definitions."""


class Scenario:
    """One interactive-video scenario.

    Parameters
    ----------
    scenario_id:
        Stable lowercase-slug id used by transitions and events.
    title:
        Editor/player-visible name ("Classroom").
    segment_ref:
        Index of the scenario's video segment in the project container.
    loop:
        Whether the segment loops while the player explores (default) or
        plays once (cut-scenes).
    on_finish:
        Optional scenario id to auto-advance to when a non-looping
        segment finishes (cut-scene chains).
    """

    def __init__(
        self,
        scenario_id: str,
        title: str,
        segment_ref: int,
        loop: bool = True,
        on_finish: Optional[str] = None,
    ) -> None:
        if not _ID_RE.match(scenario_id):
            raise ScenarioError(
                f"scenario id {scenario_id!r} must be a lowercase slug"
            )
        if not title:
            raise ScenarioError("scenario title must be non-empty")
        if segment_ref < 0:
            raise ScenarioError("segment_ref must be >= 0")
        if not loop and on_finish is None:
            # Non-looping scenario with nowhere to go would freeze playback.
            raise ScenarioError(
                f"non-looping scenario {scenario_id!r} requires on_finish"
            )
        self.scenario_id = scenario_id
        self.title = title
        self.segment_ref = segment_ref
        self.loop = loop
        self.on_finish = on_finish
        self._objects: Dict[str, InteractiveObject] = {}

    # ------------------------------------------------------------------
    # Object management (the object editor's mount surface)
    # ------------------------------------------------------------------
    def add_object(self, obj: InteractiveObject) -> str:
        """Mount an object; ids must be unique within the scenario."""
        if obj.object_id in self._objects:
            raise ScenarioError(
                f"object id {obj.object_id!r} already mounted on "
                f"{self.scenario_id!r}"
            )
        self._objects[obj.object_id] = obj
        return obj.object_id

    def remove_object(self, object_id: str) -> InteractiveObject:
        """Unmount and return an object."""
        try:
            return self._objects.pop(object_id)
        except KeyError:
            raise ScenarioError(
                f"no object {object_id!r} on scenario {self.scenario_id!r}"
            ) from None

    def get_object(self, object_id: str) -> InteractiveObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise ScenarioError(
                f"no object {object_id!r} on scenario {self.scenario_id!r}"
            ) from None

    def has_object(self, object_id: str) -> bool:
        return object_id in self._objects

    @property
    def objects(self) -> List[InteractiveObject]:
        """Mounted objects in ascending z-order (stable for equal z)."""
        return sorted(self._objects.values(), key=lambda o: o.z_order)

    def copy(self) -> "Scenario":
        """This scenario holding shallow copies of its objects, so an
        object moved on the copy stays put on the original."""
        sc = Scenario(self.scenario_id, self.title, self.segment_ref,
                      self.loop, self.on_finish)
        sc._objects = {oid: copy.copy(obj) for oid, obj in self._objects.items()}
        return sc

    def __iter__(self) -> Iterator[InteractiveObject]:
        return iter(self.objects)

    def __len__(self) -> int:
        return len(self._objects)

    def object_at(self, x: float, y: float) -> Optional[InteractiveObject]:
        """Topmost visible object whose hotspot contains (x, y).

        This is the runtime's hit-test: descending z-order, first hit
        wins — exactly the painter's-order inverse.
        """
        for obj in sorted(
            self._objects.values(), key=lambda o: o.z_order, reverse=True
        ):
            if obj.hit(x, y):
                return obj
        return None

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario_id": self.scenario_id,
            "title": self.title,
            "segment_ref": self.segment_ref,
            "loop": self.loop,
            "on_finish": self.on_finish,
            "objects": [o.to_dict() for o in self.objects],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Scenario":
        sc = cls(
            scenario_id=d["scenario_id"],
            title=d["title"],
            segment_ref=d["segment_ref"],
            loop=d.get("loop", True),
            on_finish=d.get("on_finish"),
        )
        for od in d.get("objects", []):
            sc.add_object(object_from_dict(od))
        return sc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Scenario {self.scenario_id!r} seg={self.segment_ref} "
            f"objects={len(self._objects)}>"
        )
