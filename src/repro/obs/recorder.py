"""Crash-safe flight recorder: the last N structured events, always.

A production VGBL deployment dies in the worst possible place — inside a
student's session, under load, with the interesting events long since
scrolled away.  The flight recorder is the black box for that moment: a
bounded, thread-safe ring buffer that retains the most recent structured
log events at *all* verbosity levels (the per-logger level filter in
:mod:`repro.obs.logging` applies to sinks, never to the recorder), and
dumps itself — plus the metrics snapshot and the finished span trees —
to a JSON file on demand (:func:`dump_flight`) or from an
unhandled-exception hook (:func:`install_excepthook`).

Every buffered event carries a process-wide monotonically increasing
``seq`` number, so a dump proves both completeness (no lost events in
the retained window) and ordering, even under concurrent writers.

Environment knobs::

    REPRO_FLIGHT_SIZE=512     ring capacity (events)
    REPRO_FLIGHT_DIR=.        where crash dumps land
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import metrics as _metrics
from . import tracing as _tracing

__all__ = [
    "FlightRecorder",
    "dump_flight",
    "get_flight_recorder",
    "install_excepthook",
    "uninstall_excepthook",
]

DEFAULT_CAPACITY = 512


def _env_capacity() -> int:
    raw = os.environ.get("REPRO_FLIGHT_SIZE", "").strip()
    if not raw:
        return DEFAULT_CAPACITY
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CAPACITY
    return value if value >= 1 else DEFAULT_CAPACITY


class FlightRecorder:
    """Bounded ring of the most recent structured events.

    ``record`` is unconditional — callers (the structured logger) gate on
    the obs enabled flag, and tests may drive the recorder directly.
    Appends are serialised under one lock so the ``seq`` stamp, the
    ``dropped`` count and the ring itself can never disagree.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._buf: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        #: events pushed out of the ring by newer ones
        self.dropped = 0

    def record(self, record: Dict[str, Any]) -> None:
        """Append one event (copied, stamped with the next ``seq``)."""
        with self._lock:
            self._seq += 1
            if len(self._buf) == self.capacity:
                self.dropped += 1
            self._buf.append({**record, "seq": self._seq})

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._buf)

    @property
    def total_recorded(self) -> int:
        """Events ever recorded (retained + dropped)."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    def clear(self) -> None:
        """Empty the ring and zero the bookkeeping."""
        with self._lock:
            self._buf.clear()
            self._seq = 0
            self.dropped = 0

    def payload(self, reason: str = "manual") -> Dict[str, Any]:
        """The full dump structure: events, metrics and every retained
        trace root (request and free) with its span tree."""
        return {
            "reason": reason,
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": self.events(),
            "metrics": _metrics.snapshot(),
            "spans": _tracing.get_tracer().to_dicts(),
        }

    def dump(self, path: Optional[Path] = None, reason: str = "manual") -> Path:
        """Write the dump payload as JSON; returns the file written."""
        if path is None:
            out_dir = Path(os.environ.get("REPRO_FLIGHT_DIR", "."))
            path = out_dir / f"repro-flight-{os.getpid()}-{int(time.time())}.json"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.payload(reason), indent=2, default=str) + "\n"
        )
        return path


#: The process-global flight recorder used by the structured logger.
RECORDER = FlightRecorder(_env_capacity())


def get_flight_recorder() -> FlightRecorder:
    """The process-global flight recorder."""
    return RECORDER


def dump_flight(path: Optional[Path] = None, reason: str = "manual") -> Path:
    """Dump the global flight recorder (see :meth:`FlightRecorder.dump`)."""
    return RECORDER.dump(path, reason)


# ----------------------------------------------------------------------
# Unhandled-exception hook
# ----------------------------------------------------------------------

_prev_excepthook = None


def _flight_excepthook(exc_type, exc, tb) -> None:
    """Dump the flight recorder, then defer to the previous hook."""
    try:
        path = dump_flight(reason=f"unhandled:{exc_type.__name__}")
        print(f"obs: flight recorder dumped to {path}", file=sys.stderr)
    except Exception:  # never mask the original crash
        pass
    if _prev_excepthook is not None:
        _prev_excepthook(exc_type, exc, tb)


def install_excepthook() -> None:
    """Chain the flight-dump hook in front of ``sys.excepthook`` (idempotent)."""
    global _prev_excepthook
    if sys.excepthook is _flight_excepthook:
        return
    _prev_excepthook = sys.excepthook
    sys.excepthook = _flight_excepthook


def uninstall_excepthook() -> None:
    """Restore the hook that was active before :func:`install_excepthook`."""
    global _prev_excepthook
    if sys.excepthook is _flight_excepthook and _prev_excepthook is not None:
        sys.excepthook = _prev_excepthook
    _prev_excepthook = None
