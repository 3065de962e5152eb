"""GameProject: the document the authoring tool edits.

A project gathers everything a course designer produces (§4):

* imported *footage* (named clips with fps) — the raw material;
* *committed segments* — footage cut into scenario components, in
  container order;
* *scenarios* — segments promoted to interactive scenes with objects;
* the *event table* and *dialogues*;
* game metadata (title, author, start scenario, codec choice).

``compile()`` freezes the project into a :class:`CompiledGame`: segments
are encoded into an RVID container and the runtime pieces are bundled so
``new_engine()`` can mint independent play sessions — the separation
between the authoring tool and the gaming platform that §4 describes.
What every session reads of the game is computed once per compiled
game (its :class:`~repro.runtime.engine.GameTable`), not per session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..events import EventTable
from ..graph import Scenario, ScenarioGraph, build_graph
from ..runtime import Dialogue, GameEngine
from ..runtime.engine import GameTable, build_game_table
from ..video import Frame, FrameSize, VideoReader, VideoSegment, VideoWriter
from ..video.player import Clock

__all__ = ["CompiledGame", "GameProject", "ProjectError"]


class ProjectError(ValueError):
    """Raised on inconsistent project operations."""


@dataclass(slots=True)
class _Footage:
    """One imported clip."""

    name: str
    frames: List[Frame]
    fps: float


class GameProject:
    """The authoring document.  Mutated through the editors in
    :mod:`repro.core.scenario_editor` / :mod:`repro.core.object_editor`;
    direct mutation is allowed but bypasses effort accounting."""

    def __init__(
        self,
        title: str,
        author: str = "",
        frame_size: Optional[FrameSize] = None,
        fps: float = 24.0,
        codec_name: str = "delta",
        codec_params: Optional[Dict] = None,
    ) -> None:
        if not title:
            raise ProjectError("project title must be non-empty")
        if fps <= 0:
            raise ProjectError("fps must be positive")
        self.title = title
        self.author = author
        self.frame_size = frame_size  # fixed by the first imported footage
        self.fps = float(fps)
        self.codec_name = codec_name
        self.codec_params = dict(codec_params or {})
        self.footage: Dict[str, _Footage] = {}
        self.segments: List[VideoSegment] = []
        self.scenarios: Dict[str, Scenario] = {}
        self.events = EventTable()
        self.dialogues: Dict[str, Dialogue] = {}
        self.start_scenario: Optional[str] = None

    # ------------------------------------------------------------------
    # Footage
    # ------------------------------------------------------------------
    def import_footage(self, name: str, frames: Sequence[Frame], fps: Optional[float] = None) -> None:
        """Register a clip under ``name`` (the §4.1 "select video files")."""
        if not name:
            raise ProjectError("footage name must be non-empty")
        if name in self.footage:
            raise ProjectError(f"footage {name!r} already imported")
        if not frames:
            raise ProjectError(f"footage {name!r} has no frames")
        size = frames[0].size
        if self.frame_size is None:
            self.frame_size = size
        elif size != self.frame_size:
            raise ProjectError(
                f"footage {name!r} is {size}, project is {self.frame_size}"
            )
        self.footage[name] = _Footage(name=name, frames=list(frames), fps=fps or self.fps)

    def get_footage_frames(self, name: str) -> List[Frame]:
        try:
            return self.footage[name].frames
        except KeyError:
            raise ProjectError(f"no footage named {name!r}") from None

    # ------------------------------------------------------------------
    # Segments
    # ------------------------------------------------------------------
    def commit_segment(self, segment: VideoSegment) -> int:
        """Append a segment to the container order; returns its ref."""
        if self.frame_size is None:
            self.frame_size = segment.size
        elif segment.size != self.frame_size:
            raise ProjectError(
                f"segment {segment.name!r} is {segment.size}, project is {self.frame_size}"
            )
        if any(s.name == segment.name for s in self.segments):
            raise ProjectError(f"segment name {segment.name!r} already committed")
        self.segments.append(segment)
        return len(self.segments) - 1

    def segment_ref(self, name: str) -> int:
        """Container index of a committed segment by name."""
        for i, s in enumerate(self.segments):
            if s.name == name:
                return i
        raise ProjectError(f"no committed segment named {name!r}")

    # ------------------------------------------------------------------
    # Scenarios / dialogues
    # ------------------------------------------------------------------
    def add_scenario(self, scenario: Scenario) -> None:
        if scenario.scenario_id in self.scenarios:
            raise ProjectError(f"scenario {scenario.scenario_id!r} already exists")
        if scenario.segment_ref >= len(self.segments):
            raise ProjectError(
                f"scenario {scenario.scenario_id!r} references segment "
                f"{scenario.segment_ref}, only {len(self.segments)} committed"
            )
        self.scenarios[scenario.scenario_id] = scenario
        if self.start_scenario is None:
            self.start_scenario = scenario.scenario_id

    def get_scenario(self, scenario_id: str) -> Scenario:
        try:
            return self.scenarios[scenario_id]
        except KeyError:
            raise ProjectError(f"no scenario {scenario_id!r}") from None

    def add_dialogue(self, dialogue: Dialogue) -> None:
        if dialogue.dialogue_id in self.dialogues:
            raise ProjectError(f"dialogue {dialogue.dialogue_id!r} already exists")
        self.dialogues[dialogue.dialogue_id] = dialogue

    def set_start(self, scenario_id: str) -> None:
        if scenario_id not in self.scenarios:
            raise ProjectError(f"no scenario {scenario_id!r}")
        self.start_scenario = scenario_id

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def graph(self) -> ScenarioGraph:
        """The derived branching graph (editor pane / validator input)."""
        if self.start_scenario is None:
            raise ProjectError("project has no scenarios yet")
        return build_graph(self.scenarios, self.events, self.start_scenario)

    def find_object(self, object_id: str) -> Tuple[str, object]:
        """Locate an object anywhere: returns (scenario_id, object)."""
        for sid, sc in self.scenarios.items():
            if sc.has_object(object_id):
                return sid, sc.get_object(object_id)
        raise ProjectError(f"no object {object_id!r} in any scenario")

    @property
    def object_count(self) -> int:
        return sum(len(sc) for sc in self.scenarios.values())

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledGame":
        """Freeze into a playable game (encodes the video container)."""
        if not self.segments:
            raise ProjectError("cannot compile: no committed segments")
        if self.start_scenario is None:
            raise ProjectError("cannot compile: no scenarios")
        if self.frame_size is None:
            raise ProjectError("cannot compile: frame size undetermined")
        writer = VideoWriter(
            self.frame_size,
            fps=self.fps,
            codec_name=self.codec_name,
            codec_params=self.codec_params,
        )
        for seg in self.segments:
            writer.add_segment(seg.frames)
        container = writer.tobytes()
        return CompiledGame(
            title=self.title,
            scenarios=dict(self.scenarios),
            events=self.events,
            dialogues=dict(self.dialogues),
            start=self.start_scenario,
            container=container,
        )


@dataclass(slots=True)
class CompiledGame:
    """An immutable playable bundle produced by ``GameProject.compile``."""

    title: str
    scenarios: Dict[str, Scenario]
    events: EventTable
    dialogues: Dict[str, Dialogue]
    start: str
    container: bytes
    #: the container's frame size, read once on first use: a logic-only
    #: engine needs it, and a VideoReader just to read it is not free
    _frame_size: Optional[FrameSize] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: the engines' shared read-only table, built by the first engine
    _table: Optional[GameTable] = field(
        default=None, init=False, repr=False, compare=False
    )

    def new_engine(
        self,
        clock: Optional[Clock] = None,
        with_video: bool = True,
        inventory_capacity: int = 12,
    ) -> GameEngine:
        """Mint a fresh play session.

        ``with_video=False`` skips container decode for logic-only runs
        (cohort simulations) — the engine behaves identically except for
        rendering.  The game's scenarios must not be edited once engines
        play it: the first engine's table is every later engine's.
        """
        reader = size = None
        if with_video:
            reader = VideoReader(self.container)
        else:
            size = self._frame_size
            if size is None:
                size = self._frame_size = VideoReader(self.container).size
        table = self._table
        if table is None:
            table = self._table = build_game_table(self.scenarios)
        return GameEngine(
            scenarios=self.scenarios,
            events=self.events,
            start=self.start,
            reader=reader,
            dialogues=self.dialogues,
            clock=clock,
            frame_size=size,
            inventory_capacity=inventory_capacity,
            table=table,
        )

    @property
    def container_bytes(self) -> int:
        return len(self.container)
