"""Authoring-time validation: catch broken games before students do.

The paper's pitch is that non-programmers author games; the safety net
that makes that viable is a validator that explains, in editor terms,
everything wrong with a project:

* **errors** — the game cannot run or cannot be finished: unresolvable
  ids (scenarios, objects, items, dialogues, segments), no scenarios,
  an unwinnable game (proved by the solver);
* **warnings** — the game runs but something is probably unintended:
  unreachable scenarios, dead-end scenarios with no ending, items that
  can never be obtained, rewards never granted, objects with no events
  and no description (mute props), conditions referencing unknown ids.

Every issue carries a machine-readable code, the location, and a
human message.  ``validate(project)`` is pure — it never mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..events import (
    AwardBonus,
    EndGame,
    EventTable,
    GiveItem,
    PopupImage,
    SetObjectVisible,
    SetProperty,
    StartDialogue,
    SwitchScenario,
    TakeItem,
    Trigger,
)
from ..events.conditions import Pred, parse_condition
from .project import GameProject
from .solver import solve

__all__ = ["Issue", "Severity", "ValidationReport", "validate"]


class Severity:
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Issue:
    """One validation finding."""

    severity: str
    code: str
    where: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.severity}] {self.code} @ {self.where}: {self.message}"


@dataclass(slots=True)
class ValidationReport:
    """All findings plus the winnability verdict."""

    issues: List[Issue]
    winnable: Optional[bool] = None  #: None when the solver was skipped/bounded
    solution_length: Optional[int] = None

    @property
    def errors(self) -> List[Issue]:
        return [i for i in self.issues if i.severity == Severity.ERROR]

    @property
    def warnings(self) -> List[Issue]:
        return [i for i in self.issues if i.severity == Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the project has no errors (warnings allowed)."""
        return not self.errors


def _obtainable_items(project: GameProject) -> Set[str]:
    """Items a player could ever hold: portable objects + GiveItem targets
    (from event bindings and dialogue choices)."""
    items: Set[str] = set()
    for sc in project.scenarios.values():
        for obj in sc.objects:
            if obj.portable:
                items.add(obj.object_id)
    for binding in project.events:
        for a in binding.actions:
            if isinstance(a, GiveItem):
                items.add(a.item_id)
    for dlg in project.dialogues.values():
        for node in dlg.nodes.values():
            for choice in node.choices:
                for a in choice.actions:
                    if isinstance(a, GiveItem):
                        items.add(a.item_id)
    return items


def validate(
    project: GameProject,
    check_winnable: bool = True,
    solver_max_states: int = 20000,
) -> ValidationReport:
    """Run all checks; see module docstring for the catalogue."""
    issues: List[Issue] = []

    if not project.scenarios:
        issues.append(
            Issue(Severity.ERROR, "no-scenarios", "project", "project has no scenarios")
        )
        return ValidationReport(issues=issues)
    if project.start_scenario is None:
        issues.append(
            Issue(Severity.ERROR, "no-start", "project", "start scenario unset")
        )
        return ValidationReport(issues=issues)

    object_home: Dict[str, str] = {}
    for sid, sc in project.scenarios.items():
        for obj in sc.objects:
            if obj.object_id in object_home:
                issues.append(
                    Issue(
                        Severity.ERROR,
                        "duplicate-object-id",
                        f"object:{obj.object_id}",
                        f"object id used in both {object_home[obj.object_id]!r} "
                        f"and {sid!r}; ids must be globally unique",
                    )
                )
            else:
                object_home[obj.object_id] = sid
    obtainable = _obtainable_items(project)

    # --- scenario-level checks -------------------------------------------
    for sid, sc in project.scenarios.items():
        if sc.segment_ref >= len(project.segments):
            issues.append(
                Issue(
                    Severity.ERROR,
                    "bad-segment-ref",
                    f"scenario:{sid}",
                    f"references segment {sc.segment_ref}, only "
                    f"{len(project.segments)} committed",
                )
            )
        if sc.on_finish is not None and sc.on_finish not in project.scenarios:
            issues.append(
                Issue(
                    Severity.ERROR,
                    "bad-on-finish",
                    f"scenario:{sid}",
                    f"on_finish targets unknown scenario {sc.on_finish!r}",
                )
            )
        for obj in sc.objects:
            if obj.kind == "npc":
                dlg = getattr(obj, "dialogue_id", None)
                if dlg not in project.dialogues:
                    issues.append(
                        Issue(
                            Severity.ERROR,
                            "missing-dialogue",
                            f"object:{obj.object_id}",
                            f"NPC references unknown dialogue {dlg!r}",
                        )
                    )

    # --- event-table checks ----------------------------------------------
    scenario_events: Set[str] = set()
    granted_rewards: Set[str] = set()
    for binding in project.events:
        where = f"binding:{binding.binding_id}"
        if binding.scenario_id != "*" and binding.scenario_id not in project.scenarios:
            issues.append(
                Issue(
                    Severity.ERROR,
                    "bad-binding-scenario",
                    where,
                    f"binding scoped to unknown scenario {binding.scenario_id!r}",
                )
            )
            continue
        if binding.object_id is not None:
            home = object_home.get(binding.object_id)
            if home is None:
                issues.append(
                    Issue(
                        Severity.ERROR,
                        "bad-binding-object",
                        where,
                        f"binding references unknown object {binding.object_id!r}",
                    )
                )
            elif binding.scenario_id != "*" and home != binding.scenario_id:
                issues.append(
                    Issue(
                        Severity.ERROR,
                        "object-wrong-scenario",
                        where,
                        f"object {binding.object_id!r} lives in {home!r}, "
                        f"binding is scoped to {binding.scenario_id!r}",
                    )
                )
            scenario_events.add(binding.object_id)
        if binding.trigger == Trigger.USE_ITEM and binding.item_id not in obtainable:
            issues.append(
                Issue(
                    Severity.WARNING,
                    "unobtainable-item",
                    where,
                    f"use_item binding needs {binding.item_id!r} which no "
                    "object or action can provide",
                )
            )
        # Condition predicates referencing unknown ids.
        _check_condition_refs(binding.condition, where, project, object_home, obtainable, issues)
        # Action targets.
        for a in binding.actions:
            if isinstance(a, SwitchScenario) and a.target not in project.scenarios:
                issues.append(
                    Issue(
                        Severity.ERROR,
                        "bad-switch-target",
                        where,
                        f"switch_scenario targets unknown scenario {a.target!r}",
                    )
                )
            elif isinstance(a, (PopupImage, SetObjectVisible, SetProperty)):
                oid = a.object_id
                if oid not in object_home:
                    issues.append(
                        Issue(
                            Severity.ERROR,
                            "bad-action-object",
                            where,
                            f"{a.kind} references unknown object {oid!r}",
                        )
                    )
            elif isinstance(a, StartDialogue) and a.dialogue_id not in project.dialogues:
                issues.append(
                    Issue(
                        Severity.ERROR,
                        "bad-action-dialogue",
                        where,
                        f"start_dialogue references unknown dialogue {a.dialogue_id!r}",
                    )
                )
            elif isinstance(a, TakeItem) and a.item_id not in obtainable:
                issues.append(
                    Issue(
                        Severity.WARNING,
                        "take-unobtainable",
                        where,
                        f"take_item removes {a.item_id!r} which can never be held",
                    )
                )
            if isinstance(a, AwardBonus) and a.reward_id is not None:
                granted_rewards.add(a.reward_id)
                if a.reward_id not in object_home:
                    issues.append(
                        Issue(
                            Severity.WARNING,
                            "unknown-reward",
                            where,
                            f"award_bonus grants {a.reward_id!r} which is not a "
                            "defined object (it will appear with a bare id)",
                        )
                    )

    # --- graph checks ------------------------------------------------------
    # Unknown switch targets / binding scenarios were already reported
    # above; the graph cannot be built until they are fixed.
    try:
        graph = project.graph()
    except Exception:
        return ValidationReport(issues=issues)
    for sid in sorted(graph.unreachable()):
        issues.append(
            Issue(
                Severity.WARNING,
                "unreachable-scenario",
                f"scenario:{sid}",
                "players can never reach this scenario",
            )
        )
    endgame_scenarios = _scenarios_with_endgame(project.events, project)
    for sid in sorted(graph.dead_ends()):
        if sid not in endgame_scenarios:
            issues.append(
                Issue(
                    Severity.WARNING,
                    "dead-end",
                    f"scenario:{sid}",
                    "no way out and no ending can fire here",
                )
            )

    # --- mute props ---------------------------------------------------------
    for sid, sc in project.scenarios.items():
        for obj in sc.objects:
            if (
                obj.object_id not in scenario_events
                and not obj.description
                and obj.kind in ("image", "item")
            ):
                issues.append(
                    Issue(
                        Severity.WARNING,
                        "mute-object",
                        f"object:{obj.object_id}",
                        "object has no events and no examine text; players "
                        "get no feedback from it",
                    )
                )

    # --- rewards never granted ----------------------------------------------
    for sid, sc in project.scenarios.items():
        for obj in sc.objects:
            if obj.kind == "reward" and obj.object_id not in granted_rewards:
                issues.append(
                    Issue(
                        Severity.WARNING,
                        "ungranted-reward",
                        f"object:{obj.object_id}",
                        "reward object is never granted by any award_bonus",
                    )
                )

    # --- winnability ----------------------------------------------------------
    report = ValidationReport(issues=issues)
    structural_errors = [i for i in issues if i.severity == Severity.ERROR]
    if check_winnable and not structural_errors:
        try:
            compiled = project.compile()
        except Exception as exc:
            issues.append(
                Issue(Severity.ERROR, "compile-failed", "project", str(exc))
            )
            return report
        result = solve(compiled, max_states=solver_max_states)
        report.winnable = result.winnable
        if result.winnable:
            report.solution_length = len(result.winning_script)
        elif result.winnable is False:
            issues.append(
                Issue(
                    Severity.ERROR,
                    "unwinnable",
                    "project",
                    f"no sequence of interactions ends in a win "
                    f"(explored {result.states_explored} states; outcomes "
                    f"seen: {sorted(result.outcomes_seen) or 'none'})",
                )
            )
    return report


def _check_condition_refs(
    condition: str,
    where: str,
    project: GameProject,
    object_home: Dict[str, str],
    obtainable: Set[str],
    issues: List[Issue],
) -> None:
    """Warn about condition predicates naming unknown ids."""
    if not condition.strip():
        return
    ast = parse_condition(condition)

    def walk(node) -> None:
        if isinstance(node, Pred):
            if node.name in ("has", "count") and node.args[0] not in obtainable:
                issues.append(
                    Issue(
                        Severity.WARNING,
                        "condition-unknown-item",
                        where,
                        f"condition tests item {node.args[0]!r} which can "
                        "never be held",
                    )
                )
            elif node.name == "visited" and node.args[0] not in project.scenarios:
                issues.append(
                    Issue(
                        Severity.WARNING,
                        "condition-unknown-scenario",
                        where,
                        f"condition tests unknown scenario {node.args[0]!r}",
                    )
                )
            elif node.name == "prop" and node.args[0] not in object_home:
                issues.append(
                    Issue(
                        Severity.WARNING,
                        "condition-unknown-object",
                        where,
                        f"condition reads property of unknown object "
                        f"{node.args[0]!r}",
                    )
                )
        for attr in ("left", "right", "operand"):
            child = getattr(node, attr, None)
            if child is not None:
                walk(child)

    walk(ast)


def _scenarios_with_endgame(events: EventTable, project: GameProject) -> Set[str]:
    """Scenarios in which some binding (or reachable dialogue) can end
    the game."""
    out: Set[str] = set()
    for binding in events:
        if any(isinstance(a, EndGame) for a in binding.actions):
            if binding.scenario_id == "*":
                out.update(project.scenarios)
            else:
                out.add(binding.scenario_id)
    # Dialogue choices can also end the game; NPCs tie them to scenarios.
    dialogue_ends: Set[str] = set()
    for dlg in project.dialogues.values():
        for node in dlg.nodes.values():
            for choice in node.choices:
                if any(isinstance(a, EndGame) for a in choice.actions):
                    dialogue_ends.add(dlg.dialogue_id)
    if dialogue_ends:
        for sid, sc in project.scenarios.items():
            for obj in sc.objects:
                if getattr(obj, "dialogue_id", None) in dialogue_ends:
                    out.add(sid)
    return out
