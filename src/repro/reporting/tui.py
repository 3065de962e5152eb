"""Headless interface rendering: Figures 1 and 2 as text screenshots.

The paper's only figures are GUI screenshots: Fig. 1 "the interface of
the interactive VGBL authoring tool" and Fig. 2 "the interface of the
runtime environment".  Without a GUI toolkit, the reproduction renders
the same widget trees deterministically to character grids:

* the video canvas is drawn by luminance-sampling the actual frame
  (so the screenshot really shows the playing video);
* panels, lists, buttons and the inventory window are drawn from the
  live model objects (so the screenshot really shows the tool state).

Determinism makes the figures regression-testable: the E1/E2 benches
assert the rendered screenshots' content, not just that code ran.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..video.frame import Frame

__all__ = [
    "Canvas",
    "frame_to_ascii",
    "render_authoring_screenshot",
    "render_runtime_screenshot",
    "render_dashboard",
    "render_waterfall",
    "sparkline",
]

#: dark → light luminance ramp
_RAMP = " .:-=+*#%@"

#: eight-level bar ramp for sparklines
_SPARK = "▁▂▃▄▅▆▇█"

#: in-thread spans listed under one waterfall phase before the summary
WATERFALL_CHILD_ROWS = 12


class Canvas:
    """A character grid with box/text primitives."""

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ValueError("canvas must be at least 1x1")
        self.width = width
        self.height = height
        self._grid = [[" "] * width for _ in range(height)]

    def put(self, x: int, y: int, ch: str) -> None:
        if 0 <= x < self.width and 0 <= y < self.height:
            self._grid[y][x] = ch

    def text(self, x: int, y: int, s: str, max_len: Optional[int] = None) -> None:
        """Write a string, clipped to the canvas (and ``max_len``)."""
        if max_len is not None:
            s = s[:max_len]
        for i, ch in enumerate(s):
            self.put(x + i, y, ch)

    def box(self, x: int, y: int, w: int, h: int, title: str = "") -> None:
        """Draw a bordered box with an optional title in the top edge."""
        if w < 2 or h < 2:
            return
        for i in range(x + 1, x + w - 1):
            self.put(i, y, "-")
            self.put(i, y + h - 1, "-")
        for j in range(y + 1, y + h - 1):
            self.put(x, j, "|")
            self.put(x + w - 1, j, "|")
        for cx, cy in ((x, y), (x + w - 1, y), (x, y + h - 1), (x + w - 1, y + h - 1)):
            self.put(cx, cy, "+")
        if title:
            self.text(x + 2, y, f" {title} ", max_len=w - 4)

    def blit_lines(self, x: int, y: int, lines: Sequence[str]) -> None:
        for j, line in enumerate(lines):
            self.text(x, y + j, line)

    def render(self) -> str:
        return "\n".join("".join(row).rstrip() for row in self._grid)


def frame_to_ascii(frame: Frame, width: int, height: int) -> List[str]:
    """Luminance-sample a frame into ``height`` lines of ``width`` chars.

    Vectorised: block-mean the luma with integer bucketing, then map to
    the ramp.
    """
    if width < 1 or height < 1:
        raise ValueError("ascii size must be positive")
    luma = frame.to_gray()  # (h, w) float32
    h, w = luma.shape
    ys = (np.arange(height) * h // height).clip(0, h - 1)
    xs = (np.arange(width) * w // width).clip(0, w - 1)
    sampled = luma[np.ix_(ys, xs)]
    idx = (sampled / 256.0 * len(_RAMP)).astype(np.int64).clip(0, len(_RAMP) - 1)
    ramp = np.asarray(list(_RAMP))
    return ["".join(row) for row in ramp[idx]]


# ----------------------------------------------------------------------
# Dashboard primitives (``repro top``)
# ----------------------------------------------------------------------

def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render a value series as a one-line unicode bar chart.

    The series is scaled to its own min/max (a flat series renders as a
    low bar, not a blank line); ``width`` keeps the most recent values.
    """
    vals = [float(v) for v in values]
    if width is not None:
        if width < 1:
            raise ValueError("width must be >= 1")
        vals = vals[-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK[0] * len(vals)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in vals)


def render_dashboard(
    title: str,
    sections: Sequence[tuple],
    width: int = 100,
) -> str:
    """Stack titled boxed sections of pre-formatted lines into one frame.

    ``sections`` is ``[(section_title, lines), ...]``; each section
    becomes a bordered box sized to its content.  The ``repro top``
    dashboard feeds it metric tables, span aggregates and the flight
    recorder tail.
    """
    if width < 20:
        raise ValueError("dashboard width must be >= 20")
    inner = width - 6  # box borders + margins
    rows: List[tuple] = []
    height = 1  # title line
    for sec_title, lines in sections:
        clipped = [line[:inner] for line in lines] or ["(empty)"]
        rows.append((sec_title, clipped))
        height += len(clipped) + 2  # box borders
    c = Canvas(width, height)
    c.text(1, 0, title, max_len=width - 2)
    y = 1
    for sec_title, clipped in rows:
        c.box(0, y, width, len(clipped) + 2, title=sec_title)
        c.blit_lines(2, y + 1, clipped)
        y += len(clipped) + 2
    return c.render()


def render_waterfall(timeline: dict, width: int = 72) -> str:
    """Render one request trace timeline as a text waterfall.

    ``timeline`` is the JSON dict served at the gateway's
    ``/trace/<id>`` endpoint (see
    :meth:`repro.obs.tracing.Span.timeline`): a header plus
    ``phases`` entries carrying ``start_s`` offsets and ``duration_s``.
    Each phase becomes one row whose bar is indented by its start offset
    and sized by its duration, both proportional to total trace time —
    so queue wait, shard residency and fsync wait are comparable at a
    glance, the way a browser dev-tools network panel reads.  The
    in-thread spans (``children``) that start inside a phase are listed
    indented under it with their wall and CPU milliseconds — the first
    :data:`WATERFALL_CHILD_ROWS` of them, then one line summing them all,
    which is what tells step CPU apart from pacing wait.
    """
    if width < 40:
        raise ValueError("waterfall width must be >= 40")
    trace_id = timeline.get("trace_id", "?")
    player = timeline.get("player") or "-"
    status = timeline.get("status", "?")
    total = float(timeline.get("total_s") or 0.0)
    phases = timeline.get("phases") or []
    children = timeline.get("children") or []
    label_w = max([len("phase")] + [len(str(p.get("phase", ""))) for p in phases])
    bar_w = max(10, width - label_w - 14)  # label + duration column
    lines = [
        f"trace {trace_id}  player={player}  status={status}"
        f"  total={total * 1e3:.2f}ms",
        "-" * min(width, 78),
    ]
    span = total if total > 0 else max(
        (float(p.get("start_s", 0.0)) + float(p.get("duration_s", 0.0))
         for p in phases),
        default=0.0,
    )
    for p in phases:
        name = str(p.get("phase", "?"))
        start = float(p.get("start_s", 0.0))
        dur = float(p.get("duration_s", 0.0))
        if span > 0:
            lead = int(round(start / span * bar_w))
            fill = int(round(dur / span * bar_w))
        else:
            lead, fill = 0, 0
        fill = max(fill, 1) if dur > 0 else fill
        lead = min(lead, bar_w - fill)
        bar = " " * max(lead, 0) + "#" * fill
        lines.append(
            f"{name:<{label_w}} |{bar:<{bar_w}}| {dur * 1e3:8.2f}ms"
        )
        inside = [c for c in children if start <= float(c.get("start_s", 0.0)) < start + dur]
        for child in inside[:WATERFALL_CHILD_ROWS]:
            _child_lines(child, 1, lines)
        if len(inside) > WATERFALL_CHILD_ROWS:
            lines.append(f"  ... {len(inside) - WATERFALL_CHILD_ROWS} more")
        if inside:
            wall = sum(float(c.get("duration_s", 0.0)) for c in inside)
            cpu = sum(float(c.get("cpu_s") or 0.0) for c in inside)
            lines.append(f"  = {len(inside)} spans: wall {wall * 1e3:.3f}ms"
                         f"  cpu {cpu * 1e3:.3f}ms  of {dur * 1e3:.2f}ms")
    totals = timeline.get("phase_totals") or {}
    if totals:
        summed = sum(float(v) for v in totals.values())
        lines.append("-" * min(width, 78))
        lines.append(f"{'sum':<{label_w}} |{'':<{bar_w}}| {summed * 1e3:8.2f}ms")
    return "\n".join(lines)


def _child_lines(span: dict, depth: int, lines: List[str]) -> None:
    """One span's row (wall and CPU ms), then its children one level deeper."""
    cpu = span.get("cpu_s")
    cpu_text = f"{cpu * 1e3:8.3f}ms" if cpu is not None else "       -  "
    name = "  " * depth + str(span.get("name", "?"))
    lines.append(f"{name:<28} wall {float(span.get('duration_s', 0.0)) * 1e3:8.3f}ms"
                 f"  cpu {cpu_text}")
    for child in span.get("children") or []:
        _child_lines(child, depth + 1, lines)


# ----------------------------------------------------------------------
# Figure 1: the authoring tool
# ----------------------------------------------------------------------

def render_authoring_screenshot(
    project,
    selected_scenario: Optional[str] = None,
    width: int = 100,
    height: int = 34,
) -> str:
    """Fig. 1: menu bar, video canvas with the selected scenario's first
    frame, segment timeline, scenario list, object palette, property and
    event panels.  ``project`` is a :class:`~repro.core.project.GameProject`.
    """
    c = Canvas(width, height)
    c.box(0, 0, width, height, title=f"Interactive VGBL Authoring Tool - {project.title}")
    c.text(2, 1, "File  Edit  Video  Object  Event  Game  Help")

    # Left: video canvas
    canvas_w = width * 55 // 100
    c.box(1, 2, canvas_w, height - 12, title="Video canvas")
    sid = selected_scenario or project.start_scenario
    if sid and sid in project.scenarios:
        sc = project.scenarios[sid]
        if sc.segment_ref < len(project.segments):
            frame = project.segments[sc.segment_ref].frames[0]
            art = frame_to_ascii(frame, canvas_w - 4, height - 16)
            c.blit_lines(3, 3, art)
        c.text(3, height - 11, f"scenario: {sid} ({sc.title})", max_len=canvas_w - 4)

    # Bottom-left: segmentation timeline
    c.box(1, height - 10, canvas_w, 5, title="Segments (auto-cut)")
    strip = " | ".join(
        f"{i}:{s.name}[{s.frame_count}f]" for i, s in enumerate(project.segments)
    )
    c.text(3, height - 8, strip, max_len=canvas_w - 4)
    marks = "".join("#" if s.name.startswith(str(sid or "")) else "=" for s in project.segments)
    c.text(3, height - 7, ("cut points: " + "v".join("-" * 6 for _ in project.segments)), max_len=canvas_w - 4)

    # Right column: scenario list / palette / properties / events
    rx = canvas_w + 2
    rw = width - rx - 1
    list_h = max(4, (height - 4) // 4)
    c.box(rx, 2, rw, list_h, title="Scenarios")
    for j, s in enumerate(list(project.scenarios.values())[: list_h - 2]):
        marker = "*" if s.scenario_id == sid else " "
        c.text(rx + 2, 3 + j, f"{marker}{s.scenario_id}: {s.title}", max_len=rw - 4)

    py = 2 + list_h
    c.box(rx, py, rw, list_h, title="Object palette")
    c.text(rx + 2, py + 1, "[Image] [Button] [Text]", max_len=rw - 4)
    c.text(rx + 2, py + 2, "[Item]  [NPC]    [WWW]", max_len=rw - 4)
    c.text(rx + 2, py + 3, "[Reward]", max_len=rw - 4)

    oy = py + list_h
    c.box(rx, oy, rw, list_h, title="Properties")
    if sid and sid in project.scenarios:
        objs = project.scenarios[sid].objects
        for j, o in enumerate(objs[: list_h - 2]):
            c.text(rx + 2, oy + 1 + j, f"{o.kind}:{o.object_id} z={o.z_order}", max_len=rw - 4)

    ey = oy + list_h
    c.box(rx, ey, rw, height - ey - 1, title="Events")
    shown = 0
    for b in project.events:
        if sid and b.scenario_id not in (sid, "*"):
            continue
        if shown >= height - ey - 3:
            break
        cond = f" if {b.condition}" if b.condition else ""
        c.text(
            rx + 2,
            ey + 1 + shown,
            f"{b.trigger}({b.object_id or '-'}) -> {len(b.actions)} act{cond}",
            max_len=rw - 4,
        )
        shown += 1
    return c.render()


# ----------------------------------------------------------------------
# Figure 2: the runtime environment
# ----------------------------------------------------------------------

def render_runtime_screenshot(
    engine,
    width: int = 100,
    height: int = 34,
) -> str:
    """Fig. 2: the playing video with mounted objects, buttons, the
    inventory window, score, and the top popup.  ``engine`` is a started
    :class:`~repro.runtime.engine.GameEngine`.
    """
    c = Canvas(width, height)
    state = engine.state
    sc = engine.current_scenario
    c.box(0, 0, width, height, title=f"Interactive VGBL Player - {sc.title}")

    canvas_w = width - 2
    canvas_h = height - 10
    composed = engine.render()
    art = frame_to_ascii(composed, canvas_w - 2, canvas_h - 2)
    c.blit_lines(2, 2, art)

    # Object markers: label visible objects at their hotspot centres.
    fx = (canvas_w - 2) / composed.width
    fy = (canvas_h - 2) / composed.height
    for obj in sc.objects:
        if not state.object_visible(obj.object_id, obj.visible):
            continue
        ox, oy = obj.hotspot.center()
        gx, gy = 2 + int(ox * fx), 2 + int(oy * fy)
        label = f"[{obj.name}]" if obj.kind == "button" else f"<{obj.name}>"
        c.text(gx, gy, label, max_len=canvas_w - gx)

    # Inventory window
    iy = height - 8
    c.box(1, iy, width - 2, 4, title="Inventory window")
    slots = state.inventory.slots
    if slots:
        parts = []
        for s in slots:
            star = "*" if s.is_reward else ""
            sel = ">" if state.inventory.selected == s.item_id else " "
            count = f"x{s.count}" if s.count > 1 else ""
            parts.append(f"{sel}[{star}{s.name}{count}]")
        c.text(3, iy + 1, " ".join(parts), max_len=width - 6)
    else:
        c.text(3, iy + 1, "(empty backpack)", max_len=width - 6)
    c.text(3, iy + 2, f"score: {state.score}   scenario: {state.current_scenario}"
           f"   visited: {len(state.visited)}", max_len=width - 6)

    # Status / popup line
    sy = height - 4
    c.box(1, sy, width - 2, 3, title="Status")
    if state.popups:
        top = state.popups[-1]
        c.text(3, sy + 1, f"[{top.kind.upper()}] {top.content}", max_len=width - 6)
    elif state.outcome:
        c.text(3, sy + 1, f"GAME OVER: {state.outcome.upper()}", max_len=width - 6)
    else:
        c.text(3, sy + 1, "(click objects to interact; drag items to the backpack)",
               max_len=width - 6)
    return c.render()
