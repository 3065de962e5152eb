"""Structured, trace-correlated event logging for the VGBL runtime.

Metrics (:mod:`repro.obs.metrics`) say *how many*; spans
(:mod:`repro.obs.tracing`) say *where the time went*; this module
records *what happened*: JSONL events with a level, a logger name, wall
and monotonic timestamps, arbitrary key/value fields, and — when emitted
inside a live span — the active trace/span IDs, so a log line can be
joined against the tracing export and the flight-recorder dump.

Design constraints, matching the rest of the obs package:

1. **Near-zero cost when disabled.**  Every log method checks the
   module-level obs flag first and returns before touching the clock,
   the context variable, or any allocation beyond the caller's kwargs.
2. **The flight recorder sees everything.**  Per-logger levels filter
   what reaches the *sinks* (files, callables); the bounded ring in
   :mod:`repro.obs.recorder` receives every surviving event regardless,
   so a crash dump always has full verbosity for the recent past.
3. **Cheap when enabled.**  Per-logger effective levels are cached, and
   hot call sites can thin themselves with ``sample=0.1``-style
   probabilistic sampling (a deterministic seeded RNG, so test runs are
   reproducible).

Usage::

    from repro.obs import logging as olog

    log = olog.get_logger("engine")
    log.info("scenario.switch", src="lobby", dst="market", via="door")
    log.debug("stream.fetch", sample=0.25, segment=3, bytes=8192)

    olog.set_log_level("warning")            # root
    olog.set_log_level("debug", "engine")    # dotted-prefix override
    olog.add_log_file("run.jsonl")           # JSONL sink for `repro obs tail`
"""

from __future__ import annotations

import io
import json
import random
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from . import metrics as _metrics
from . import tracing as _tracing
from .recorder import get_flight_recorder

__all__ = [
    "LEVELS",
    "StructLogger",
    "add_log_file",
    "add_log_sink",
    "format_event",
    "get_logger",
    "remove_log_sink",
    "reset_logging",
    "set_log_level",
]

#: Level names to numeric severity (stdlib-compatible ordering).
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}
_LEVEL_NAMES = {v: k for k, v in LEVELS.items()}

Sink = Callable[[Dict[str, Any]], None]

_M_EVENTS = _metrics.counter(
    "repro_log_events_total",
    "Structured log events that passed the level filter, by level",
)
_M_SINK_ERRORS = _metrics.counter(
    "repro_log_sink_errors_total",
    "Exceptions raised by log sinks (swallowed; logging must not break hosts)",
)


def _level_no(level: "str | int") -> int:
    if isinstance(level, int):
        return level
    try:
        return LEVELS[level.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r}; known: {sorted(LEVELS)}"
        ) from None


def _default_root_level() -> int:
    raw = os.environ.get("REPRO_LOG_LEVEL", "").strip().lower()
    return LEVELS.get(raw, LEVELS["debug"])


class _LogConfig:
    """Shared state: per-logger levels, sinks, sampling RNG."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._levels: Dict[str, int] = {"": _default_root_level()}
        self._eff_cache: Dict[str, int] = {}
        self._sinks: List[Sink] = []
        # Deterministic so sampled workloads are reproducible run-to-run.
        self._rng = random.Random(0x0B5)

    # -- levels --------------------------------------------------------
    def set_level(self, level: "str | int", logger: str = "") -> None:
        no = _level_no(level)
        with self._lock:
            self._levels[logger] = no
            self._eff_cache.clear()

    def effective_level(self, name: str) -> int:
        cached = self._eff_cache.get(name)
        if cached is not None:
            return cached
        with self._lock:
            # Longest dotted-prefix match: "net.cache" beats "net" beats root.
            probe = name
            while True:
                if probe in self._levels:
                    level = self._levels[probe]
                    break
                if not probe:
                    level = LEVELS["debug"]
                    break
                probe = probe.rpartition(".")[0]
            self._eff_cache[name] = level
            return level

    # -- sinks ---------------------------------------------------------
    def add_sink(self, sink: Sink) -> Sink:
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Sink) -> bool:
        with self._lock:
            try:
                self._sinks.remove(sink)
                return True
            except ValueError:
                return False

    # -- dispatch ------------------------------------------------------
    def dispatch(self, name: str, level_no: int, record: Dict[str, Any]) -> None:
        # The flight recorder keeps full verbosity regardless of levels.
        get_flight_recorder().record(record)
        if level_no < self.effective_level(name):
            return
        _M_EVENTS.inc(level=record["level"])
        for sink in tuple(self._sinks):
            try:
                sink(record)
            except Exception:
                _M_SINK_ERRORS.inc()

    def reset(self) -> None:
        with self._lock:
            self._levels = {"": _default_root_level()}
            self._eff_cache.clear()
            self._sinks.clear()
            self._rng = random.Random(0x0B5)


_CONFIG = _LogConfig()
_loggers: Dict[str, "StructLogger"] = {}
_loggers_lock = threading.Lock()


class StructLogger:
    """A named source of structured events."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    # One method per level keeps call sites terse and grep-able.
    def debug(self, event: str, *, sample: Optional[float] = None, **fields: Any) -> None:
        if _metrics._ENABLED:
            self._log(10, event, sample, fields)

    def info(self, event: str, *, sample: Optional[float] = None, **fields: Any) -> None:
        if _metrics._ENABLED:
            self._log(20, event, sample, fields)

    def warning(self, event: str, *, sample: Optional[float] = None, **fields: Any) -> None:
        if _metrics._ENABLED:
            self._log(30, event, sample, fields)

    def error(self, event: str, *, sample: Optional[float] = None, **fields: Any) -> None:
        if _metrics._ENABLED:
            self._log(40, event, sample, fields)

    def _log(
        self,
        level_no: int,
        event: str,
        sample: Optional[float],
        fields: Dict[str, Any],
    ) -> None:
        if sample is not None and sample < 1.0:
            if sample <= 0.0 or _CONFIG._rng.random() >= sample:
                return
        record: Dict[str, Any] = {
            "ts": time.time(),
            "mono": time.perf_counter(),
            "level": _LEVEL_NAMES[level_no],
            "logger": self.name,
            "event": event,
        }
        if fields:
            record["fields"] = fields
        span = _tracing.get_tracer().current()
        if span is not None:
            trace_id = getattr(span, "trace_id", None)
            if trace_id is not None:
                record["trace_id"] = trace_id
                record["span_id"] = span.span_id
        _CONFIG.dispatch(self.name, level_no, record)


def get_logger(name: str) -> StructLogger:
    """Get-or-create the named logger (idempotent, thread-safe)."""
    logger = _loggers.get(name)
    if logger is None:
        with _loggers_lock:
            logger = _loggers.setdefault(name, StructLogger(name))
    return logger


def set_log_level(level: "str | int", logger: str = "") -> None:
    """Set the minimum sink level for ``logger`` (dotted-prefix scope).

    The empty string is the root.  ``set_log_level("warning")`` then
    ``set_log_level("debug", "engine")`` gives every ``engine*`` logger
    full verbosity while the rest stay quiet.
    """
    _CONFIG.set_level(level, logger)


def add_log_sink(sink: Sink) -> Sink:
    """Register a callable receiving every record that passes its level."""
    return _CONFIG.add_sink(sink)


def remove_log_sink(sink: Sink) -> bool:
    """Unregister a sink; True if it was registered."""
    return _CONFIG.remove_sink(sink)


class _FileSink:
    """JSONL file sink (line-buffered so ``repro obs tail -f`` sees it live)."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fh: Optional[io.TextIOWrapper] = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, default=str)
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def add_log_file(path: "Path | str") -> _FileSink:
    """Attach a JSONL file sink; returns it (use with ``remove_log_sink``)."""
    sink = _FileSink(Path(path))
    _CONFIG.add_sink(sink)
    return sink


def reset_logging() -> None:
    """Drop all sinks and level overrides (used by tests)."""
    _CONFIG.reset()


# A REPRO_LOG_FILE environment variable wires a JSONL sink without code.
_env_log_file = os.environ.get("REPRO_LOG_FILE", "").strip()
if _env_log_file:  # pragma: no cover - environment-dependent
    try:
        add_log_file(_env_log_file)
    except OSError:
        pass


# ----------------------------------------------------------------------
# Human rendering (shared by `repro obs tail` and `repro top`)
# ----------------------------------------------------------------------

def format_event(record: Dict[str, Any]) -> str:
    """One log record as a single human-readable line."""
    ts = record.get("ts")
    if isinstance(ts, (int, float)):
        stamp = time.strftime("%H:%M:%S", time.localtime(ts)) + f".{int(ts % 1 * 1000):03d}"
    else:
        stamp = "--:--:--.---"
    level = str(record.get("level", "?")).upper()
    name = str(record.get("logger", "?"))
    event = str(record.get("event", "?"))
    parts = [f"{stamp} {level:<7} {name:<8} {event}"]
    fields = record.get("fields") or {}
    if fields:
        parts.append(" ".join(f"{k}={v}" for k, v in fields.items()))
    trace_id = record.get("trace_id")
    if trace_id:
        span_id = record.get("span_id", "")
        parts.append(f"[trace={str(trace_id)[:8]} span={str(span_id)[:8]}]")
    return " ".join(parts)
