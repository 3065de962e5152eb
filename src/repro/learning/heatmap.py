"""Interaction heatmaps: where students actually click.

Authoring feedback the editors cannot compute statically: which parts of
a scenario's frame attract interaction.  The recorder logs gesture
coordinates; this module aggregates them into per-scenario 2D histograms
and renders overlay frames (heat blended over the scenario's keyframe)
for the teacher/designer to inspect.

A cold hotspot the designer considers essential means the object is not
discoverable (wrong position, bad sprite, occluded); a hot empty region
means students expect something interactive there — both are §4.2-level
authoring actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..runtime.session import SessionLog
from ..video.frame import Frame, FrameSize

__all__ = ["ClickHeatmap", "collect_heatmaps", "render_heatmap_overlay"]


@dataclass(slots=True)
class ClickHeatmap:
    """Aggregated click positions for one scenario."""

    scenario_id: str
    counts: np.ndarray  #: (grid_h, grid_w) float64 click counts
    cell: int           #: pixels per grid cell
    total_clicks: int

    def density(self) -> np.ndarray:
        """Counts normalised to [0, 1] (zeros if no clicks)."""
        peak = self.counts.max()
        if peak <= 0:
            return np.zeros_like(self.counts)
        return self.counts / peak


def collect_heatmaps(
    logs: Sequence[SessionLog],
    frame_size: FrameSize,
    cell: int = 8,
) -> Dict[str, ClickHeatmap]:
    """Aggregate click/drag-origin coordinates per scenario.

    Requires logs recorded with ``keep_notices=True``; interaction
    notices must carry ``x``/``y`` (the engine includes them for click
    and drag gestures).
    """
    if cell < 1:
        raise ValueError("cell must be >= 1")
    grid_w = (frame_size.width + cell - 1) // cell
    grid_h = (frame_size.height + cell - 1) // cell
    counts: Dict[str, np.ndarray] = {}
    totals: Dict[str, int] = {}
    for log in logs:
        current: Optional[str] = None
        for notice in log.notices:
            if notice.topic == "scenario":
                current = notice.payload.get("scenario_id")
            elif notice.topic == "interaction" and current is not None:
                x = notice.payload.get("x")
                y = notice.payload.get("y")
                if x is None or y is None:
                    continue
                gx = int(min(max(x, 0), frame_size.width - 1)) // cell
                gy = int(min(max(y, 0), frame_size.height - 1)) // cell
                if current not in counts:
                    counts[current] = np.zeros((grid_h, grid_w), dtype=np.float64)
                    totals[current] = 0
                counts[current][gy, gx] += 1
                totals[current] += 1
    return {
        sid: ClickHeatmap(scenario_id=sid, counts=c, cell=cell,
                          total_clicks=totals[sid])
        for sid, c in counts.items()
    }


def render_heatmap_overlay(
    base: Frame,
    heatmap: ClickHeatmap,
    max_opacity: float = 0.6,
) -> Frame:
    """Blend the heat (red) over a scenario frame, vectorised.

    Cell density maps linearly to opacity up to ``max_opacity``; cold
    cells leave the frame untouched.
    """
    if not 0.0 < max_opacity <= 1.0:
        raise ValueError("max_opacity must be in (0, 1]")
    density = heatmap.density()  # (gh, gw)
    # Upsample the density grid to pixel resolution by repetition.
    per_cell = heatmap.cell
    dense = np.repeat(np.repeat(density, per_cell, axis=0), per_cell, axis=1)
    dense = dense[: base.height, : base.width]
    alpha = (dense * max_opacity).astype(np.float32)[..., None]
    heat = np.zeros((base.height, base.width, 3), dtype=np.float32)
    heat[..., 0] = 255.0  # pure red
    out = base.data.astype(np.float32) * (1.0 - alpha) + heat * alpha
    return Frame(out.astype(np.uint8))
