"""A small synchronous publish/subscribe bus.

The runtime engine publishes everything observable — interactions,
fired bindings, executed actions, scenario switches, popups, rewards —
onto topic channels.  The session recorder, the learning-analytics
collector and the TUI all subscribe rather than being hard-wired into the
engine, which keeps the engine testable in isolation.

Delivery is synchronous and in subscription order; a subscriber that
raises is unsubscribed after ``max_errors`` consecutive failures instead
of poisoning the engine loop (failure-injection tests rely on this).

Delivery happens only when someone subscribes.  A notice on a topic
with no subscriber (and none on ``"*"``) is counted and dropped before
any :class:`Notice` is built, so a bus nobody listens to, as on a
served session, costs one counter increment per publish.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, DefaultDict, Dict, List, Optional, Tuple

from ..obs import logging as _obslog
from ..obs import metrics as _obs

__all__ = ["EventBus", "Notice"]

_LOG = _obslog.get_logger("bus")

_M_SUB_ERRORS = _obs.counter(
    "repro_bus_subscriber_errors_total",
    "Exceptions raised by bus subscribers (swallowed by quarantine logic)",
)
_M_QUARANTINED = _obs.counter(
    "repro_bus_quarantined_total",
    "Subscribers dropped after repeated failures",
)


@dataclass(frozen=True, slots=True)
class Notice:
    """One published notification."""

    topic: str
    payload: Dict[str, Any]
    time: float = 0.0


Subscriber = Callable[[Notice], None]


class EventBus:
    """Topic-based synchronous pub/sub with error quarantine.

    Topics are plain strings ("interaction", "action", "scenario",
    "popup", "reward", ...).  Subscribing to ``"*"`` receives everything.
    """

    def __init__(self, max_errors: int = 3) -> None:
        if max_errors < 1:
            raise ValueError("max_errors must be >= 1")
        self._subs: DefaultDict[str, List[Tuple[int, Subscriber]]] = defaultdict(list)
        self._errors: Dict[int, int] = {}
        self._next_token = 1
        self.max_errors = max_errors
        #: number of notices published (all topics)
        self.published_count = 0
        #: subscriber tokens dropped due to repeated errors
        self.quarantined: List[int] = []

    def subscribe(self, topic: str, fn: Subscriber) -> int:
        """Subscribe ``fn`` to ``topic`` (or "*"); returns a token."""
        token = self._next_token
        self._next_token += 1
        self._subs[topic].append((token, fn))
        self._errors[token] = 0
        return token

    def unsubscribe(self, token: int) -> bool:
        """Remove a subscription by token; True if it existed."""
        found = False
        for topic, subs in self._subs.items():
            kept = [(t, f) for (t, f) in subs if t != token]
            if len(kept) != len(subs):
                self._subs[topic] = kept
                found = True
        self._errors.pop(token, None)
        return found

    def publish(
        self, topic: str, payload: Optional[Dict[str, Any]] = None, time: float = 0.0
    ) -> Optional[Notice]:
        """Publish a notice; delivers to topic and "*" subscribers.

        Returns the delivered notice, or None when nobody subscribes to
        ``topic`` or ``"*"`` (the notice is counted but never built).
        """
        self.published_count += 1
        subs = self._subs
        if not subs.get(topic) and not subs.get("*"):
            return None
        notice = Notice(topic=topic, payload=dict(payload or {}), time=time)
        for sub_topic in (topic, "*"):
            # Copy: subscribers may unsubscribe during delivery.
            for token, fn in list(self._subs.get(sub_topic, ())):
                try:
                    fn(notice)
                except Exception as exc:
                    _M_SUB_ERRORS.inc()
                    self._errors[token] = self._errors.get(token, 0) + 1
                    if _obs.enabled():
                        _LOG.warning(
                            "bus.subscriber_error",
                            topic=topic,
                            token=token,
                            errors=self._errors[token],
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    if self._errors[token] >= self.max_errors:
                        self.unsubscribe(token)
                        self.quarantined.append(token)
                        _M_QUARANTINED.inc()
                        if _obs.enabled():
                            _LOG.warning(
                                "bus.quarantined", topic=topic, token=token
                            )
                else:
                    self._errors[token] = 0
        return notice

    def subscriber_count(self, topic: Optional[str] = None) -> int:
        """Number of live subscriptions, optionally for one topic."""
        if topic is not None:
            return len(self._subs.get(topic, ()))
        return sum(len(v) for v in self._subs.values())
