"""Play-session recording: the raw material of learning analytics.

"Students can obtain knowledge from the process of making decision and
interaction" (§3.2) — to *measure* that (experiment E6) every observable
event of a play session is recorded.  The recorder subscribes to the
engine's bus and accumulates an ordered log plus cheap running
aggregates; :mod:`repro.learning.analytics` turns logs into engagement
and knowledge-gain metrics.

Failure accounting: the bus quarantines subscribers that keep raising,
which protects the engine loop but used to lose the failure silently.
The recorder now wraps its aggregation step so any internal error is
counted on ``repro_session_errors_total`` and re-raised as
:class:`SessionError` — observable both to the bus (which may still
quarantine) and to the metrics layer (which never forgets it happened).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..events.bus import EventBus, Notice
from ..obs import logging as _obslog
from ..obs import metrics as _obs

__all__ = ["SessionError", "SessionLog", "SessionRecorder"]

_M_STARTED = _obs.counter(
    "repro_session_started_total",
    "Session recorders attached to an engine bus",
)
_M_FINISHED = _obs.counter(
    "repro_session_finished_total",
    "Session recorders finished, by game outcome",
)
_M_ACTIVE = _obs.gauge(
    "repro_session_active",
    "Recorders currently attached and collecting",
)
_M_NOTICES = _obs.counter(
    "repro_session_notices_total",
    "Bus notices recorded across all sessions",
)
_M_ERRORS = _obs.counter(
    "repro_session_errors_total",
    "Recorder failures while aggregating a notice (would otherwise be "
    "swallowed by bus quarantine)",
)


_LOG = _obslog.get_logger("session")


class SessionError(RuntimeError):
    """Raised when the recorder fails to aggregate a notice."""


@dataclass(slots=True)
class SessionLog:
    """The finished record of one play session."""

    player_id: str
    notices: List[Notice] = field(default_factory=list)
    #: counts by topic ("interaction", "action", "scenario", ...)
    topic_counts: Counter = field(default_factory=Counter)
    #: counts of interaction gesture kinds
    gesture_counts: Counter = field(default_factory=Counter)
    duration: float = 0.0
    outcome: Optional[str] = None
    final_score: int = 0
    scenarios_visited: int = 0
    web_visits: int = 0

    @property
    def interaction_count(self) -> int:
        return self.topic_counts.get("interaction", 0)

    @property
    def interactions_per_minute(self) -> float:
        if self.duration <= 0:
            return 0.0
        return 60.0 * self.interaction_count / self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "player_id": self.player_id,
            "duration": self.duration,
            "outcome": self.outcome,
            "final_score": self.final_score,
            "scenarios_visited": self.scenarios_visited,
            "web_visits": self.web_visits,
            "topic_counts": dict(self.topic_counts),
            "gesture_counts": dict(self.gesture_counts),
            "notice_count": len(self.notices),
        }


class SessionRecorder:
    """Subscribes to an engine bus and builds a :class:`SessionLog`.

    Parameters
    ----------
    bus:
        The engine's event bus.
    player_id:
        Identifier stamped on the resulting log.
    keep_notices:
        When False only aggregates are kept (long cohort simulations
        drop the raw log to bound memory).
    """

    def __init__(self, bus: EventBus, player_id: str, keep_notices: bool = True) -> None:
        self.log = SessionLog(player_id=player_id)
        self.keep_notices = keep_notices
        self._token = bus.subscribe("*", self._on_notice)
        self._bus = bus
        self._closed = False
        #: aggregation failures observed by this recorder
        self.error_count = 0
        _M_STARTED.inc()
        _M_ACTIVE.inc()

    def _on_notice(self, notice: Notice) -> None:
        try:
            if self.keep_notices:
                self.log.notices.append(notice)
            self.log.topic_counts[notice.topic] += 1
            if notice.topic == "interaction":
                self.log.gesture_counts[notice.payload.get("gesture", "?")] += 1
            elif notice.topic == "web":
                self.log.web_visits += 1
        except Exception as exc:
            # Count the loss before the bus's quarantine can hide it.
            self.error_count += 1
            _M_ERRORS.inc()
            if _obs.enabled():
                _LOG.error(
                    "recorder.error",
                    player_id=self.log.player_id,
                    topic=notice.topic,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise SessionError(
                f"recorder for {self.log.player_id!r} failed on topic "
                f"{notice.topic!r}: {exc}"
            ) from exc
        _M_NOTICES.inc()

    def finish(
        self,
        duration: float,
        outcome: Optional[str],
        final_score: int,
        scenarios_visited: int,
    ) -> SessionLog:
        """Stamp final figures, unsubscribe, and return the log."""
        if self._closed:
            return self.log
        self.log.duration = duration
        self.log.outcome = outcome
        self.log.final_score = final_score
        self.log.scenarios_visited = scenarios_visited
        self._bus.unsubscribe(self._token)
        self._closed = True
        _M_FINISHED.inc(outcome=str(outcome))
        _M_ACTIVE.dec()
        if _obs.enabled():
            _LOG.info(
                "recorder.finish",
                player_id=self.log.player_id,
                outcome=str(outcome),
                duration_s=duration,
                notices=len(self.log.notices),
                errors=self.error_count,
            )
        return self.log
