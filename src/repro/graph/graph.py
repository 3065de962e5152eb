"""Scenario graph: branching structure derived from authored events.

The paper's interactive video "changes the play sequence" when objects
are triggered — i.e. the game is a directed graph whose nodes are
scenarios and whose edges are the ``SwitchScenario`` actions (plus
``on_finish`` auto-advances).  The graph is *derived*, never authored
directly: the scenario editor shows it as feedback, and the validator
uses it to prove structural properties before a game ships.

The graph is one adjacency map, ``source -> {target -> [EdgeInfo]}``,
walked by plain breadth- and depth-first search; every edge carries the
binding id / trigger that creates it, so diagnostics can point the author
to the exact event to fix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..events import EventTable, SwitchScenario
from .scenario import Scenario

__all__ = ["EdgeInfo", "GraphError", "ScenarioGraph", "build_graph"]


class GraphError(ValueError):
    """Raised on structurally invalid scenario collections."""


@dataclass(frozen=True, slots=True)
class EdgeInfo:
    """Provenance of one graph edge."""

    source: str
    target: str
    binding_id: str          #: "" for on_finish auto-advances
    trigger: str             #: trigger kind, or "on_finish"
    conditional: bool        #: True if the binding carries a guard


class ScenarioGraph:
    """Directed multigraph over scenarios with analysis helpers."""

    def __init__(
        self,
        scenarios: Dict[str, Scenario],
        start: str,
        edges: Sequence[EdgeInfo],
    ) -> None:
        if start not in scenarios:
            raise GraphError(f"start scenario {start!r} is not defined")
        self.scenarios = dict(scenarios)
        self.start = start
        self.edges = list(edges)
        #: source -> {target -> [EdgeInfo]}; targets in first-seen order
        self._adj: Dict[str, Dict[str, List[EdgeInfo]]] = {
            sid: {} for sid in scenarios
        }
        for e in self.edges:
            if e.source not in scenarios:
                raise GraphError(f"edge from unknown scenario {e.source!r}")
            if e.target not in scenarios:
                raise GraphError(
                    f"edge targets unknown scenario {e.target!r} "
                    f"(binding {e.binding_id!r})"
                )
            self._adj[e.source].setdefault(e.target, []).append(e)

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def _targets(self, scenario_id: str) -> Dict[str, List[EdgeInfo]]:
        try:
            return self._adj[scenario_id]
        except KeyError:
            raise GraphError(f"unknown scenario {scenario_id!r}") from None

    def successors(self, scenario_id: str) -> List[str]:
        """Distinct scenarios reachable in one transition (sorted)."""
        return sorted(self._targets(scenario_id))

    def out_edges(self, scenario_id: str) -> List[EdgeInfo]:
        """EdgeInfo records leaving a scenario, grouped by target in the
        order each target first appeared."""
        return [e for es in self._targets(scenario_id).values() for e in es]

    def distances(self, source: str) -> Dict[str, int]:
        """Transition distance from ``source`` to every scenario it can
        reach (``source`` included, at 0), in breadth-first order."""
        self._targets(source)
        dist = {source: 0}
        frontier = [source]
        while frontier:
            fresh = []
            for sid in frontier:
                for nxt in self._adj[sid]:
                    if nxt not in dist:
                        dist[nxt] = dist[sid] + 1
                        fresh.append(nxt)
            frontier = fresh
        return dist

    def reachable(self) -> Set[str]:
        """Scenarios reachable from the start (start included)."""
        return set(self.distances(self.start))

    def unreachable(self) -> Set[str]:
        """Authored scenarios the player can never see."""
        return set(self.scenarios) - self.reachable()

    def dead_ends(self) -> Set[str]:
        """Reachable scenarios with no way out.

        A dead end is only a defect if the game cannot end there; the
        validator cross-references ``EndGame`` actions before flagging.
        """
        return {s for s in self.reachable() if not self._adj[s]}

    def shortest_path(self, target: str) -> Optional[List[str]]:
        """Fewest-transitions path start → target, or None."""
        self._targets(target)
        parent: Dict[str, Optional[str]] = {self.start: None}
        frontier = [self.start]
        while frontier and target not in parent:
            fresh = []
            for sid in frontier:
                for nxt in self._adj[sid]:
                    if nxt not in parent:
                        parent[nxt] = sid
                        fresh.append(nxt)
            frontier = fresh
        if target not in parent:
            return None
        path: List[str] = []
        node: Optional[str] = target
        while node is not None:
            path.append(node)
            node = parent[node]
        return path[::-1]

    def eccentricity_from_start(self) -> Dict[str, int]:
        """Transition distance from start to every reachable scenario."""
        return self.distances(self.start)

    def branching_factor(self) -> float:
        """Mean distinct out-degree over reachable scenarios.

        The paper's adventure-game structure implies factor > 1 at
        decision points; linear video has factor exactly 1 (E6 contrast).
        """
        reach = self.reachable()
        return sum(len(self._adj[s]) for s in reach) / len(reach)

    def cycles(self) -> List[List[str]]:
        """Elementary cycles, each once, as scenario lists starting at
        the cycle's earliest-authored scenario.

        Parallel edges count once; a self-loop is a one-scenario cycle.
        Players revisiting places is expected: the editor shows cycles
        and nothing rejects them.
        """
        rank = {sid: i for i, sid in enumerate(self._adj)}
        found: List[List[str]] = []
        for root in self._adj:
            # Depth-first over scenarios authored after ``root``: every
            # path back to ``root`` closes a cycle whose earliest
            # scenario is ``root``, so no cycle is found twice.
            path = [root]
            stack = [iter(self._adj[root])]
            while stack:
                for nxt in stack[-1]:
                    if nxt == root:
                        found.append(list(path))
                    elif rank[nxt] > rank[root] and nxt not in path:
                        path.append(nxt)
                        stack.append(iter(self._adj[nxt]))
                        break
                else:
                    stack.pop()
                    path.pop()
        return found

    def to_dot(self) -> str:
        """GraphViz dot text (editor's graph pane / documentation)."""
        lines = ["digraph scenario_graph {"]
        for sid, sc in sorted(self.scenarios.items()):
            shape = "doublecircle" if sid == self.start else "box"
            lines.append(f'  "{sid}" [label="{sc.title}", shape={shape}];')
        for e in self.edges:
            style = "dashed" if e.conditional else "solid"
            label = e.trigger
            lines.append(
                f'  "{e.source}" -> "{e.target}" [label="{label}", style={style}];'
            )
        lines.append("}")
        return "\n".join(lines)


def build_graph(
    scenarios: Dict[str, Scenario],
    events: EventTable,
    start: str,
) -> ScenarioGraph:
    """Derive the scenario graph from scenarios + event table.

    Every ``SwitchScenario`` action contributes an edge from the binding's
    scenario (global bindings contribute from *every* scenario, which is
    what a global "menu" button means structurally); ``on_finish``
    auto-advances contribute unconditional edges.
    """
    edges: List[EdgeInfo] = []
    for binding in events:
        targets = [
            a.target for a in binding.actions if isinstance(a, SwitchScenario)
        ]
        if not targets:
            continue
        if binding.scenario_id == "*":
            sources: Iterable[str] = scenarios.keys()
        else:
            if binding.scenario_id not in scenarios:
                raise GraphError(
                    f"binding {binding.binding_id!r} references unknown "
                    f"scenario {binding.scenario_id!r}"
                )
            sources = (binding.scenario_id,)
        for src in sources:
            for tgt in targets:
                edges.append(
                    EdgeInfo(
                        source=src,
                        target=tgt,
                        binding_id=binding.binding_id,
                        trigger=binding.trigger,
                        conditional=bool(binding.condition.strip()),
                    )
                )
    for sc in scenarios.values():
        if sc.on_finish is not None:
            edges.append(
                EdgeInfo(
                    source=sc.scenario_id,
                    target=sc.on_finish,
                    binding_id="",
                    trigger="on_finish",
                    conditional=False,
                )
            )
    return ScenarioGraph(scenarios, start, edges)
