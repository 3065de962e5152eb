"""One trace model for the VGBL runtime: spans, request roots, CPU.

Metrics answer "how many / how fast on average"; a trace answers
"where did *this* request spend its time".  Everything is a
:class:`Span`: wall-clock start/end, the thread CPU
(``time.thread_time_ns``) it burned, attributes, children, and the
trace/span ids the structured logger stamps onto records emitted
inside it.  The process-global :class:`Tracer` keeps two kinds of root.

**Request roots.**  A gateway SUBMIT crosses three threads (event
loop, shard, socket writer).  ``start(trace_id)`` opens its root and
``mark(trace_id, phase)`` closes the interval since the previous mark
as ``phase``, so phases *partition* the request's wall time and sum to
the client-observed latency.  The canonical phases (:data:`PHASES`):
``accept`` (SUBMIT receipt → admission), ``queue_wait`` (→ the shard
starts the session), ``shard_step`` (→ final step: wall residency,
tick pacing included), ``fsync_wait`` (→ the WAL end record is
durable) and ``flush`` (END frame → socket).

In-thread work nests under the phases: :meth:`Tracer.child` opens a
span under an open request root from any thread (the shard's
``shard.step``), and spans opened inside it (``engine.dispatch``) nest
there through the current-span context variable.  Children carry wall
*and* CPU time, so a waterfall tells step CPU from pacing, GIL and
journal waits.

**Free roots.**  A span opened with no active parent (``wal.group_commit``,
``repl.ship``) is its own root, kept in a bounded ring for the flight
recorder, ``repro top`` and log correlation.

**Trace-scoped detail.**  Per-op work that runs thousands of times a
second (the engine's ``engine.dispatch`` span and its structured
records) is recorded only where :func:`in_trace` holds: obs is on and
a span is current, so the detail has a trace to join.  An untraced
session opens no span and writes no record for it, which keeps the
free-root ring and the flight recorder for the roots and warnings they
exist for; its metrics still count.

Retention is bounded per span as well as per root: a span keeps its
first :data:`MAX_CHILDREN` children and counts the rest as
``dropped_children``, so a long session's request root (one
``shard.step`` per op) or a large ``repl.apply`` batch cannot grow
without bound.

``with span("dispatch", gesture="click") as sp:`` opens a span and
``@trace("encode")`` wraps a function in one.  Disabled by the metrics
master switch, ``span()`` returns a shared no-op without reading the
clock and ``start()`` refuses, so later calls on that id are no-ops.
A raising span body marks ``status="error"`` and still propagates.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import random
import threading
import time
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, Iterator, List, Optional

from . import metrics as _metrics

__all__ = ["MAX_CHILDREN", "PHASES", "Sampler", "Span", "Tracer", "get_tracer", "in_trace",
           "new_id", "span", "trace"]

#: canonical request phases, in pipeline order
PHASES = ("accept", "queue_wait", "shard_step", "fsync_wait", "flush")

#: retention bounds: open and finished request roots, free roots
MAX_OPEN = 1024
MAX_FINISHED = 256
MAX_ROOTS = 1000
#: children one span retains; later ones still run but are only counted
MAX_CHILDREN = 256

_M_PHASE = _metrics.histogram("repro_trace_phase_seconds", (
    "Wall time one traced request spent in each pipeline phase, by phase"))
_M_REQUESTS = _metrics.counter(
    "repro_trace_requests_total", "Requests traced end-to-end, by final status")
_M_ORPHANED = _metrics.counter("repro_trace_orphaned_total", (
    "Traces evicted or abandoned before their final phase was recorded"))
_M_OPEN = _metrics.gauge(
    "repro_trace_open", "Traces currently open (started but not finished)")

_id_rng = random.Random()


def new_id() -> str:
    """A 64-bit hex correlation id (trace and span ids)."""
    return f"{_id_rng.getrandbits(64):016x}"


class Sampler:
    """Deterministic 1-in-N head sampler: fires on the first call of
    every ``round(1/rate)`` calls, with no RNG, so benchmark overhead
    comparisons repeat exactly (``itertools.count`` needs no lock)."""

    __slots__ = ("rate", "period", "_calls")

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("sample rate must be within [0, 1]")
        self.rate = rate
        self.period = 0 if rate <= 0.0 else max(1, round(1.0 / rate))
        self._calls = itertools.count()

    def __call__(self) -> bool:
        return self.period > 0 and next(self._calls) % self.period == 0


class Span:
    """One timed operation with wall and thread-CPU time; may nest.

    A span is its own context manager and keeps ``attributes`` as given.
    A request root (:meth:`request`) is open while its status is
    ``None``; its work crosses threads, so only its children carry CPU.
    """

    __slots__ = ("name", "start", "end", "cpu_ns", "attributes", "children",
                 "dropped_children", "status", "error", "span_id", "trace_id",
                 "parent_id", "player", "started_at", "segments", "last_mark",
                 "_tracer", "_token", "_generation")

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None,
                 tracer: "Optional[Tracer]" = None) -> None:
        self.name = name
        self.start = self.last_mark = time.perf_counter()
        #: thread CPU ns at open, then the elapsed CPU ns once closed
        self.cpu_ns: Optional[int] = time.thread_time_ns()
        self.attributes: Dict[str, Any] = {} if attributes is None else attributes
        self.children: List["Span"] = []
        self.dropped_children = 0
        self.status: Optional[str] = "ok"
        self.span_id = new_id()
        self.end = self.error = self.trace_id = self.parent_id = None
        #: request roots only: player, wall-clock start and the
        #: ``(phase, start_offset_s, duration_s)`` mark segments
        self.player = self.started_at = self.segments = None
        self._tracer, self._token, self._generation = tracer, None, 0

    @classmethod
    def request(cls, trace_id: str, player: Optional[str] = None,
                **attributes: Any) -> "Span":
        """A request root whose phases are recorded by :meth:`mark`."""
        root = cls("request", attributes)
        root.trace_id, root.player, root.status, root.cpu_ns = trace_id, player, None, None
        root.started_at, root.segments = time.time(), []
        return root

    def __enter__(self) -> "Span":
        self._token = self._tracer._push(self)
        self._generation = self._tracer._generation
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            self.cpu_ns = time.thread_time_ns() - self.cpu_ns
            self.end = time.perf_counter()
            if exc_type is not None:
                self.status = "error"
                self.error = f"{exc_type.__name__}: {exc}"
        finally:
            self._tracer._pop(self)
        return None  # never swallow the exception

    @property
    def duration(self) -> float:
        """Elapsed seconds (to now if the span is still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    @property
    def cpu_s(self) -> Optional[float]:
        """Thread CPU seconds between open and close (None while open)."""
        return None if self.end is None or self.cpu_ns is None else self.cpu_ns / 1e9

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def adopt_by(self, parent: "Span") -> "Span":
        """Link this unopened span under ``parent``; returns it.  Past
        :data:`MAX_CHILDREN` the parent counts it instead of keeping it."""
        self.trace_id, self.parent_id = parent.trace_id, parent.span_id
        if len(parent.children) < MAX_CHILDREN:
            parent.children.append(self)
        else:
            parent.dropped_children += 1
        return self

    def mark(self, phase: str, at: Optional[float] = None) -> float:
        """Close the interval since the last mark as ``phase``."""
        now = time.perf_counter() if at is None else at
        duration = max(0.0, now - self.last_mark)
        self.segments.append((phase, self.last_mark - self.start, duration))
        self.last_mark = now
        return duration

    def phase_totals(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for phase, _start, duration in self.segments or ():
            totals[phase] = totals.get(phase, 0.0) + duration
        return totals

    def timeline(self) -> Dict[str, Any]:
        """The request view ``/trace/<id>`` serves and the CLI renders."""
        return {
            "trace_id": self.trace_id,
            "player": self.player,
            "status": self.status or "open",
            "started_at": self.started_at,
            "total_s": self.last_mark - self.start,
            "phases": [{"phase": phase, "start_s": start, "duration_s": duration}
                       for phase, start, duration in self.segments or ()],
            "phase_totals": self.phase_totals(),
            "attributes": dict(self.attributes),
            "children": [c.to_dict(self.start) for c in self.children],
            "dropped_children": self.dropped_children,
        }

    def to_dict(self, origin: Optional[float] = None) -> Dict[str, Any]:
        """This span's subtree; ``start_s`` is relative to ``origin``."""
        origin = self.start if origin is None else origin
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start - origin,
            "duration_s": self.duration,
            "cpu_s": self.cpu_s,
            "status": self.status or "open",
            "error": self.error,
            "attributes": dict(self.attributes),
            "children": [c.to_dict(origin) for c in self.children],
            "dropped_children": self.dropped_children,
        }


class _NullSpan:
    """Shared do-nothing span and context manager for disabled tracing."""

    __slots__ = ()
    name = ""
    status = "ok"
    span_id = trace_id = parent_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set_attribute(self, key: str, value: Any) -> None:
        return None


_NULL_CONTEXT = _NullSpan()


class Tracer:
    """The process's one trace store: request roots and free roots.

    The current span is a per-thread :mod:`contextvars` variable.  An
    open request evicted by overflow is an orphan (the SLO pins
    ``repro_trace_orphaned_total`` to zero); finished requests and free
    roots age out oldest-first.
    """

    def __init__(self, max_open: int = MAX_OPEN, max_finished: int = MAX_FINISHED,
                 max_roots: int = MAX_ROOTS) -> None:
        if min(max_open, max_finished, max_roots) < 1:
            raise ValueError("trace store bounds must be >= 1")
        self.max_open, self.max_finished = max_open, max_finished
        self._roots: "deque[Span]" = deque(maxlen=max_roots)
        self.dropped = 0
        self._open: "OrderedDict[str, Span]" = OrderedDict()
        self._finished: "OrderedDict[str, Span]" = OrderedDict()
        self._lock = threading.Lock()
        self._current: "contextvars.ContextVar[Optional[Span]]" = (
            contextvars.ContextVar("repro_obs_current_span", default=None))
        #: bumped by reset(); spans opened before a reset unwind inertly
        self._generation = 0

    # -- spans ---------------------------------------------------------
    def _push(self, sp: Span) -> contextvars.Token:
        if sp.trace_id is None:  # not pre-linked by child()
            parent = self._current.get()
            if parent is not None:
                sp.adopt_by(parent)
            else:
                sp.trace_id = new_id()
        return self._current.set(sp)

    def _pop(self, sp: Span) -> None:
        if sp._generation != self._generation:
            # reset while this span was open: do not restore a pre-reset
            # parent or record the stale span
            self._current.set(None)
            return
        self._current.reset(sp._token)
        sp._token = None
        if sp.parent_id is None:
            self.dropped += len(self._roots) == self._roots.maxlen
            self._roots.append(sp)

    def span(self, name: str, **attributes: Any) -> "Span | _NullSpan":
        """Open a span under the current one (no-op when disabled)."""
        if not _metrics.enabled():
            return _NULL_CONTEXT
        return Span(name, attributes, self)

    def child(self, trace_id: Optional[str], name: str,
              **attributes: Any) -> "Span | _NullSpan":
        """Open a span under the open request root ``trace_id`` from any
        thread; a no-op when that request is not open."""
        sp = Span(name, attributes, self)
        return self._update(trace_id, sp.adopt_by) or _NULL_CONTEXT

    def current(self) -> Optional[Span]:
        """The innermost live span, or None."""
        return self._current.get()

    # -- request roots -------------------------------------------------
    def start(self, trace_id: str, player: Optional[str] = None,
              **attributes: Any) -> bool:
        """Open a request root; False when recording is off or the id is taken."""
        if not _metrics.enabled() or not trace_id:
            return False
        with self._lock:
            if trace_id in self._open or trace_id in self._finished:
                return False
            while len(self._open) >= self.max_open:
                self._retire_locked(self._open.popitem(last=False)[1], "orphaned")
            self._open[trace_id] = Span.request(trace_id, player, **attributes)
            _M_OPEN.set(len(self._open))
        return True

    def _update(self, trace_id: Optional[str], fn: Callable[[Span], Any]) -> Any:
        """``fn(root)`` under the lock when ``trace_id`` is open, else None."""
        with self._lock:
            root = self._open.get(trace_id) if trace_id else None
            return fn(root) if root is not None else None

    def mark(self, trace_id: Optional[str], phase: str) -> None:
        """Attribute the time since the request's last mark to ``phase``."""
        duration = self._update(trace_id, lambda root: root.mark(phase))
        if duration is not None:
            _M_PHASE.observe(duration, phase=phase)

    def annotate(self, trace_id: Optional[str], **attributes: Any) -> None:
        self._update(trace_id, lambda root: root.attributes.update(attributes))

    def increment(self, trace_id: Optional[str], key: str, amount: int = 1) -> None:
        """Bump a numeric attribute (e.g. live INPUT ops absorbed)."""
        def bump(root: Span) -> None:
            root.attributes[key] = int(root.attributes.get(key, 0)) + amount
        self._update(trace_id, bump)

    def finish(self, trace_id: Optional[str], status: str = "ok") -> Optional[Span]:
        """Close a request root; idempotent (a second finish is a no-op)."""
        with self._lock:
            root = self._open.pop(trace_id, None) if trace_id else None
            if root is None:
                return None
            self._retire_locked(root, status)
            _M_OPEN.set(len(self._open))
        if status != "orphaned":
            _M_REQUESTS.inc(status=status)
        return root

    def abandon(self, trace_id: Optional[str]) -> None:
        """Give up on an open request (it died mid-pipeline)."""
        self.finish(trace_id, "orphaned")

    def _retire_locked(self, root: Span, status: str) -> None:
        root.status, root.end = status, root.last_mark
        if status == "orphaned":
            _M_ORPHANED.inc()
        self._finished[root.trace_id] = root
        while len(self._finished) > self.max_finished:
            self._finished.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The timeline of one open or finished request, else None."""
        with self._lock:
            root = self._open.get(trace_id) or self._finished.get(trace_id)
            return root.timeline() if root is not None else None

    def finished_ids(self) -> List[str]:
        """Finished request ids, oldest first."""
        with self._lock:
            return list(self._finished)

    def latest(self) -> Optional[str]:
        """The most recently finished request id (None when empty)."""
        with self._lock:
            return next(reversed(self._finished), None)

    @property
    def open_count(self) -> int:
        return len(self._open)

    @property
    def finished_count(self) -> int:
        return len(self._finished)

    # -- the whole store -----------------------------------------------
    @property
    def roots(self) -> List[Span]:
        """Retained free roots, oldest first."""
        return list(self._roots)

    def retained(self) -> List[Span]:
        """Every retained root: open and finished requests, then free roots."""
        with self._lock:
            requests = [*self._open.values(), *self._finished.values()]
        return requests + list(self._roots)

    def reset(self) -> None:
        """Drop every root and the active-span state; a span live at
        reset unwinds inertly, and dropped open requests are not orphans."""
        with self._lock:
            self._open.clear()
            self._finished.clear()
            _M_OPEN.set(0)
        self._roots.clear()
        self.dropped = 0
        self._generation += 1
        self._current.set(None)

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first walk of every retained span, roots and children."""
        stack = list(reversed(self.retained()))
        while stack:
            s = stack.pop()
            yield s
            stack.extend(reversed(s.children))

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [s.to_dict() for s in self.retained()]

    def to_json(self, indent: Optional[int] = None) -> str:
        """Every retained root (with children) as a JSON array."""
        return json.dumps(self.to_dicts(), indent=indent, default=str)


#: The process-global trace store every layer records into.
TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global trace store."""
    return TRACER


def span(name: str, **attributes: Any) -> "Span | _NullSpan":
    """Open a span on the global tracer."""
    return TRACER.span(name, **attributes)


def in_trace() -> bool:
    """True when obs is on and a span is current in this thread: per-op
    detail recorded now joins a trace instead of starting its own."""
    return _metrics._ENABLED and TRACER._current.get() is not None


def trace(name: Optional[str] = None):
    """Decorator tracing every call of the wrapped function, in a span
    named ``name`` or the function's qualified name."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            with TRACER.span(name or fn.__qualname__):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
