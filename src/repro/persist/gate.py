"""Hold items until the log record behind each one is durable.

A :class:`DurableGate` sits beside one :class:`~repro.persist.wal.Journal`.
Its owner appends a record, then parks ``(lsn, item)`` and moves on;
the gate's own thread waits, oldest first, until the journal has
fsynced ``lsn`` (:meth:`Journal.wait_durable`) and, when a quorum wait
is given, until that wait reports the record mirrored too.  Then it
hands the item to ``release(item, lsn, durable)``.  So neither the
appending thread nor the journal's flusher ever blocks on, or runs, a
release.

An item whose record is not covered ``wait_s`` after it was parked, or
whose journal has failed, is released anyway with ``durable=False``.
Items leave in LSN order, the order they were parked in.
"""

from __future__ import annotations

import threading
from collections import deque
from time import monotonic
from typing import Any, Callable, Deque, List, Optional, Tuple

__all__ = ["DurableGate"]

#: ``(lsn, timeout_s) -> mirrored``: the wait after local durability
QuorumWait = Callable[[int, float], bool]


class DurableGate:
    """Release parked items, in LSN order, once their records are covered."""

    def __init__(
        self,
        journal: Any,
        release: Callable[[Any, int, bool], None],
        wait_s: float,
        quorum_wait: Optional[QuorumWait] = None,
        name: str = "repro-durable-gate",
    ) -> None:
        self._journal = journal
        self._release = release
        self._wait_s = wait_s
        self._quorum_wait = quorum_wait
        self._cond = threading.Condition()
        #: ``(lsn, parked_at, item)``, oldest first
        self._parked: Deque[Tuple[int, float, Any]] = deque()
        self._closing = False
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._thread.start()

    def park(self, lsn: int, item: Any) -> None:
        """Hold ``item`` until the record at ``lsn`` is covered."""
        with self._cond:
            self._parked.append((lsn, monotonic(), item))
            self._cond.notify()

    def close(self, discard: bool = False) -> List[Any]:
        """Stop the gate; returns the parked items it dropped.

        By default every parked item is still released (its journal
        should be closed first, so none waits on a commit that will not
        come) before the thread is joined.  ``discard=True`` drops them
        unreleased and does not wait for the thread, which ends once
        its current wait returns.
        """
        with self._cond:
            self._closing = True
            dropped: List[Any] = []
            if discard:
                dropped = [item for _, _, item in self._parked]
                self._parked.clear()
            self._cond.notify()
        if not discard:
            self._thread.join()
        return dropped

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._parked and not self._closing:
                    self._cond.wait()
                if not self._parked:
                    return
                lsn, parked_at, item = self._parked[0]
            deadline = parked_at + self._wait_s
            durable = self._journal.wait_durable(
                lsn, max(0.0, deadline - monotonic())
            )
            if durable and self._quorum_wait is not None:
                durable = self._quorum_wait(
                    lsn, max(0.0, deadline - monotonic())
                )
            with self._cond:
                if not self._parked or self._parked[0][2] is not item:
                    continue  # discarded while we waited
                self._parked.popleft()
            self._release(item, lsn, durable)
