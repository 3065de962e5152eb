"""Frame: the fundamental raster unit of the synthetic video substrate.

The VGBL platform of Chang, Hsu & Shih (ICPPW 2007) treats video as the
basic presentation medium: scenarios are video segments, and interactive
objects are *mounted on the video frame*.  This module provides the frame
type everything else builds on — a thin, well-specified wrapper around a
C-contiguous ``uint8`` NumPy array of shape ``(height, width, 3)`` (RGB).

Performance notes (see DESIGN.md §6):

* every per-pixel operation here is vectorised; there are no Python loops
  over pixels;
* mutating operations (``fill_rect``, ``blit``, ``blend``) operate on
  *views* of the backing array in place — callers that need isolation use
  :meth:`Frame.copy` explicitly;
* histograms and difference metrics used by shot detection are computed
  with ``np.bincount``/``np.add.reduceat`` style kernels on flattened
  contiguous buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "CHANNELS",
    "Frame",
    "FrameSize",
    "blend_premultiplied",
    "clip_rect",
    "color_histogram",
    "frame_absdiff",
    "hist_l1_distance",
]

#: Number of colour channels in every frame (RGB).
CHANNELS = 3


@dataclass(frozen=True, slots=True)
class FrameSize:
    """Immutable (width, height) pair with convenience helpers.

    Widths and heights are measured in pixels and must be positive.
    """

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"frame size must be positive, got {self.width}x{self.height}"
            )

    @property
    def shape(self) -> Tuple[int, int, int]:
        """NumPy array shape ``(height, width, channels)`` for this size."""
        return (self.height, self.width, CHANNELS)

    @property
    def pixels(self) -> int:
        """Total pixel count (``width * height``)."""
        return self.width * self.height

    def contains(self, x: int, y: int) -> bool:
        """Return ``True`` if integer pixel coordinate (x, y) is in-bounds."""
        return 0 <= x < self.width and 0 <= y < self.height

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.width}x{self.height}"


def clip_rect(
    x: int, y: int, w: int, h: int, size: FrameSize
) -> Tuple[int, int, int, int]:
    """Clip rectangle ``(x, y, w, h)`` against a frame of ``size``.

    Returns the clipped ``(x0, y0, x1, y1)`` half-open box.  A rectangle
    entirely outside the frame clips to an empty box (``x0 == x1`` or
    ``y0 == y1``); callers can cheaply skip empty work.
    """
    x0 = min(max(0, x), size.width)
    y0 = min(max(0, y), size.height)
    x1 = min(size.width, x + max(0, w))
    y1 = min(size.height, y + max(0, h))
    if x1 < x0:
        x1 = x0
    if y1 < y0:
        y1 = y0
    return x0, y0, x1, y1


class Frame:
    """A single RGB video frame backed by a ``uint8`` NumPy array.

    Parameters
    ----------
    data:
        Array of shape ``(height, width, 3)``, dtype ``uint8``.  The frame
        takes ownership; it is made C-contiguous if it is not already.

    The class deliberately exposes its backing array (:attr:`data`) so the
    compositor and codecs can work on raw buffers, but all invariants
    (shape, dtype, contiguity) are established at construction.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        arr = np.asarray(data)
        if arr.ndim != 3 or arr.shape[2] != CHANNELS:
            raise ValueError(
                f"frame data must have shape (h, w, {CHANNELS}), got {arr.shape}"
            )
        if arr.dtype != np.uint8:
            raise TypeError(f"frame data must be uint8, got {arr.dtype}")
        self.data = np.ascontiguousarray(arr)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def blank(cls, size: FrameSize, color: Sequence[int] = (0, 0, 0)) -> "Frame":
        """Create a frame filled with a solid ``color`` (RGB tuple)."""
        data = np.empty(size.shape, dtype=np.uint8)
        data[...] = np.asarray(color, dtype=np.uint8)
        return cls(data)

    @classmethod
    def from_gradient(
        cls,
        size: FrameSize,
        top: Sequence[int],
        bottom: Sequence[int],
    ) -> "Frame":
        """Create a vertical linear gradient frame from ``top`` to ``bottom``.

        Used by the synthetic footage generator for cheap, visually
        distinct scene backgrounds.
        """
        t = np.linspace(0.0, 1.0, size.height, dtype=np.float32)[:, None]
        top_v = np.asarray(top, dtype=np.float32)
        bot_v = np.asarray(bottom, dtype=np.float32)
        rows = top_v[None, :] * (1.0 - t) + bot_v[None, :] * t  # (h, 3)
        data = np.broadcast_to(
            rows[:, None, :], size.shape
        ).astype(np.uint8, copy=True)
        return cls(data)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def size(self) -> FrameSize:
        """The frame's :class:`FrameSize`."""
        h, w, _ = self.data.shape
        return FrameSize(width=w, height=h)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def nbytes(self) -> int:
        """Size of the raw pixel buffer in bytes."""
        return self.data.nbytes

    def copy(self) -> "Frame":
        """Deep copy of the frame (new backing buffer)."""
        return Frame(self.data.copy())

    def tobytes(self) -> bytes:
        """Raw C-order pixel bytes (used by the container and codecs)."""
        return self.data.tobytes()

    @classmethod
    def frombytes(cls, raw: bytes, size: FrameSize) -> "Frame":
        """Inverse of :meth:`tobytes` for a known frame size."""
        expected = size.pixels * CHANNELS
        if len(raw) != expected:
            raise ValueError(
                f"expected {expected} bytes for {size}, got {len(raw)}"
            )
        data = np.frombuffer(raw, dtype=np.uint8).reshape(size.shape)
        return cls(data.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (
            self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:  # frames are mutable; identity hash
        return id(self)

    def checksum(self) -> int:
        """Cheap order-sensitive checksum for regression tests and figures.

        Computed as a weighted sum of the flattened pixel buffer modulo
        ``2**32``; deterministic across platforms for identical content.
        """
        flat = self.data.reshape(-1).astype(np.uint64)
        weights = (np.arange(flat.size, dtype=np.uint64) % np.uint64(8191)) + np.uint64(1)
        return int((flat * weights).sum() % np.uint64(2**32))

    # ------------------------------------------------------------------
    # Mutating raster operations (in place, vectorised)
    # ------------------------------------------------------------------
    def fill_rect(
        self, x: int, y: int, w: int, h: int, color: Sequence[int]
    ) -> None:
        """Fill an axis-aligned rectangle with a solid colour (clipped)."""
        x0, y0, x1, y1 = clip_rect(x, y, w, h, self.size)
        if x1 > x0 and y1 > y0:
            self.data[y0:y1, x0:x1] = np.asarray(color, dtype=np.uint8)

    def draw_border(
        self, x: int, y: int, w: int, h: int, color: Sequence[int], thickness: int = 1
    ) -> None:
        """Draw a rectangle outline of the given ``thickness`` (clipped)."""
        t = max(1, thickness)
        self.fill_rect(x, y, w, t, color)
        self.fill_rect(x, y + h - t, w, t, color)
        self.fill_rect(x, y, t, h, color)
        self.fill_rect(x + w - t, y, t, h, color)

    def draw_disc(self, cx: int, cy: int, radius: int, color: Sequence[int]) -> None:
        """Fill a disc centred at (cx, cy); used for sprite rendering.

        The mask is computed with a broadcast distance kernel restricted to
        the disc's bounding box, so cost is O(radius^2) not O(frame).
        """
        if radius <= 0:
            return
        x0, y0, x1, y1 = clip_rect(cx - radius, cy - radius, 2 * radius + 1, 2 * radius + 1, self.size)
        if x1 <= x0 or y1 <= y0:
            return
        ys = np.arange(y0, y1, dtype=np.int64)[:, None]
        xs = np.arange(x0, x1, dtype=np.int64)[None, :]
        mask = (xs - cx) ** 2 + (ys - cy) ** 2 <= radius * radius
        region = self.data[y0:y1, x0:x1]
        region[mask] = np.asarray(color, dtype=np.uint8)

    def blit(self, src: np.ndarray, x: int, y: int) -> None:
        """Copy an RGB patch ``src`` (h, w, 3 uint8) onto the frame at (x, y).

        The patch is clipped against the frame bounds; out-of-bounds
        regions are silently dropped, matching sprite semantics.
        """
        if src.ndim != 3 or src.shape[2] != CHANNELS:
            raise ValueError("blit source must be (h, w, 3)")
        sh, sw = src.shape[:2]
        x0, y0, x1, y1 = clip_rect(x, y, sw, sh, self.size)
        if x1 <= x0 or y1 <= y0:
            return
        self.data[y0:y1, x0:x1] = src[y0 - y : y1 - y, x0 - x : x1 - x]

    def blend(self, src: np.ndarray, alpha: np.ndarray, x: int, y: int) -> None:
        """Alpha-blend an RGB patch onto the frame at (x, y).

        Parameters
        ----------
        src:
            ``(h, w, 3) uint8`` source pixels.
        alpha:
            ``(h, w) float32`` per-pixel opacity in [0, 1] (broadcast
            against the three channels).

        Implemented with a single fused float expression over the clipped
        region; the result is written back in place.
        """
        if src.shape[:2] != alpha.shape:
            raise ValueError("alpha mask must match source height/width")
        sh, sw = src.shape[:2]
        x0, y0, x1, y1 = clip_rect(x, y, sw, sh, self.size)
        if x1 <= x0 or y1 <= y0:
            return
        sub_src = src[y0 - y : y1 - y, x0 - x : x1 - x].astype(np.float32)
        sub_a = alpha[y0 - y : y1 - y, x0 - x : x1 - x].astype(np.float32)[..., None]
        dst = self.data[y0:y1, x0:x1].astype(np.float32)
        out = sub_src * sub_a + dst * (1.0 - sub_a)
        np.clip(out, 0.0, 255.0, out=out)
        self.data[y0:y1, x0:x1] = out.astype(np.uint8)

    # ------------------------------------------------------------------
    # Analysis helpers (read-only)
    # ------------------------------------------------------------------
    def to_gray(self) -> np.ndarray:
        """Luma (ITU-R BT.601) as a ``float32`` array of shape (h, w)."""
        f = self.data.astype(np.float32)
        return f[..., 0] * 0.299 + f[..., 1] * 0.587 + f[..., 2] * 0.114


# ----------------------------------------------------------------------
# Free-standing kernels shared by shot detection and the compositor
# ----------------------------------------------------------------------

def color_histogram(frame: Frame, bins_per_channel: int = 8) -> np.ndarray:
    """Joint colour histogram used by the shot-boundary detector.

    Each pixel is quantised to ``bins_per_channel`` levels per channel and
    mapped to a single joint bin index; counts are accumulated with
    ``np.bincount`` over the flattened contiguous buffer.  Returns a
    normalised ``float64`` vector of length ``bins_per_channel**3`` that
    sums to 1.
    """
    if not 2 <= bins_per_channel <= 64:
        raise ValueError("bins_per_channel must be in [2, 64]")
    b = bins_per_channel
    q = (frame.data.astype(np.uint32) * b) >> 8  # quantise 0..255 -> 0..b-1
    idx = (q[..., 0] * b + q[..., 1]) * b + q[..., 2]
    counts = np.bincount(idx.reshape(-1), minlength=b * b * b)
    total = counts.sum()
    return counts.astype(np.float64) / (total if total else 1)


def hist_l1_distance(h1: np.ndarray, h2: np.ndarray) -> float:
    """L1 distance between two normalised histograms, in [0, 2]."""
    if h1.shape != h2.shape:
        raise ValueError("histogram shapes differ")
    return float(np.abs(h1 - h2).sum())


def frame_absdiff(a: Frame, b: Frame) -> float:
    """Mean absolute pixel difference between two equal-size frames."""
    if a.data.shape != b.data.shape:
        raise ValueError("frames must be the same size")
    return float(
        np.abs(a.data.astype(np.int16) - b.data.astype(np.int16)).mean()
    )


def blend_premultiplied(
    dst: np.ndarray, src_premul: np.ndarray, one_minus_alpha: np.ndarray
) -> np.ndarray:
    """Composite a premultiplied source over ``dst`` (both float32).

    ``out = src_premul + dst * one_minus_alpha``.  Exposed for the
    compositor's batch path which premultiplies object layers once and
    reuses them across frames (an ablation measured in
    ``benchmarks/bench_ablations.py``).
    """
    return src_premul + dst * one_minus_alpha
