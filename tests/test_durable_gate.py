"""DurableGate: parked items leave once, in LSN order, when covered."""

import itertools
import sys
import threading
import time

from repro.persist import DurableGate


class _Journal:
    """The part of a Journal the gate reads: a durable watermark."""

    def __init__(self):
        self._cond = threading.Condition()
        self.durable = 0
        #: set once the gate first waits on a commit
        self.waiting = threading.Event()

    def advance(self, lsn):
        with self._cond:
            self.durable = max(self.durable, lsn)
            self._cond.notify_all()

    def wait_durable(self, lsn, timeout=None):
        self.waiting.set()
        with self._cond:
            return self._cond.wait_for(lambda: self.durable >= lsn, timeout)


def test_each_item_leaves_once_in_lsn_order_after_its_commit():
    # Four appenders (more than the cores here), each with its own gate
    # over one journal, race a committer that advances the watermark
    # in small steps; a short switch interval forces interleavings.
    journal = _Journal()
    lsns = itertools.count(1)
    lock = threading.Lock()
    released = []
    n_gates, per_gate = 4, 300

    def release(item, lsn, durable):
        released.append((item[0], lsn, durable, journal.durable))

    gates = [DurableGate(journal, release, wait_s=10.0)
             for _ in range(n_gates)]
    stop = threading.Event()

    def append(k):
        for _ in range(per_gate):
            with lock:  # LSNs rise in park order, as on one shard
                lsn = next(lsns)
                gates[k].park(lsn, (k, lsn))

    def commit():
        while not stop.is_set():
            with lock:
                tip = next(lsns) - 1
            journal.advance(tip - 3)
            time.sleep(0.0005)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        committer = threading.Thread(target=commit)
        appenders = [threading.Thread(target=append, args=(k,))
                     for k in range(n_gates)]
        committer.start()
        for thread in appenders:
            thread.start()
        for thread in appenders:
            thread.join(10.0)
            assert not thread.is_alive()
        stop.set()
        committer.join(10.0)
        assert not committer.is_alive()
        journal.advance(10**9)
        for gate in gates:
            assert gate.close() == []
    finally:
        sys.setswitchinterval(old)

    assert len(released) == n_gates * per_gate
    for k in range(n_gates):
        mine = [row for row in released if row[0] == k]
        assert len(mine) == per_gate
        assert [lsn for _, lsn, _, _ in mine] == sorted(
            lsn for _, lsn, _, _ in mine
        )
        for _, lsn, durable, watermark in mine:
            assert durable and watermark >= lsn


def test_an_uncovered_item_leaves_at_the_budget_as_non_durable():
    journal = _Journal()
    out = []
    gate = DurableGate(journal, lambda *row: out.append(row), wait_s=0.05)
    t0 = time.monotonic()
    gate.park(1, "late")
    deadline = time.monotonic() + 5.0
    while not out and time.monotonic() < deadline:
        time.sleep(0.005)
    assert out == [("late", 1, False)]
    assert time.monotonic() - t0 >= 0.05
    assert gate.close() == []


def test_a_quorum_miss_releases_non_durable():
    journal = _Journal()
    journal.advance(5)
    asked = []

    def quorum_wait(lsn, timeout):
        asked.append(lsn)
        return lsn < 2

    out = []
    gate = DurableGate(journal, lambda *row: out.append(row), wait_s=1.0,
                       quorum_wait=quorum_wait)
    gate.park(1, "acked")
    gate.park(2, "short")
    assert gate.close() == []
    assert out == [("acked", 1, True), ("short", 2, False)]
    assert asked == [1, 2]


def test_discard_drops_what_is_still_parked(monkeypatch):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    journal = _Journal()
    out = []
    gate = DurableGate(journal, lambda *row: out.append(row), wait_s=30.0)
    for lsn in (1, 2, 3):
        gate.park(lsn, lsn)
    assert journal.waiting.wait(5.0)  # the gate is waiting on LSN 1
    assert gate.close(discard=True) == [1, 2, 3]
    journal.advance(3)  # the wait in progress returns; nothing leaves
    gate._thread.join(5.0)
    assert not gate._thread.is_alive()
    assert out == [] and crashes == []
