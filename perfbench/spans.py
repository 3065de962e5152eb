"""In-memory spans around the program's public layer boundaries.

Only the traced run installs these wrappers (``--trace 1``); the
end-to-end runs execute the program untouched.  A span records name,
start, end, parent span and session id.  Each span's *self* time is
its duration minus the time its child spans cover, so nested layers
(``ServedSession.step`` around ``apply_scripted_op``) are not counted
twice.  Spans stay in memory; durations are aggregated per name and
the first ``RAW_LIMIT`` raw spans are written out when the server
process ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: raw spans kept for the written trace (durations are kept for all)
RAW_LIMIT = 50_000


def _pid_of_args(args: tuple, kwargs: dict) -> Optional[str]:
    """Best-effort session id of a wrapped call."""
    for value in args[:3]:
        pid = getattr(value, "player_id", None)
        if isinstance(pid, str):
            return pid
        if isinstance(value, str):
            return value
        if isinstance(value, dict):
            pid = value.get("sid") or value.get("player")
            if isinstance(pid, str):
                return pid
    return None


class SpanRecorder:
    """Thread-aware span stack plus per-name duration lists."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count()
        #: name -> self times (seconds)
        self.self_s: Dict[str, List[float]] = {}
        #: name -> inclusive durations (seconds)
        self.total_s: Dict[str, List[float]] = {}
        self.raw: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        self.self_s.setdefault(name, [])
        self.total_s.setdefault(name, [])
        selfs, totals, raw = self.self_s[name], self.total_s[name], self.raw

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                selfs.append(dur - frame[1])
                totals.append(dur)
                if len(raw) < RAW_LIMIT:
                    raw.append((span_id, parent, name, t0, t1,
                                _pid_of_args(args, kwargs)))

        return wrapper

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (module function or class method)."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """name -> {n, self_p50_s, total_p50_s}."""
        out = {}
        for name, selfs in self.self_s.items():
            if not selfs:
                continue
            out[name] = {
                "n": len(selfs),
                "self_p50_s": _median(selfs),
                "total_p50_s": _median(self.total_s[name]),
                "self_sum_s": sum(selfs),
            }
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1, pid in self.raw:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": t0, "end": t1, "session": pid,
                }) + "\n")


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def install(recorder: SpanRecorder) -> Dict[str, int]:
    """Wrap every layer boundary the benchmark reports on.

    Functions imported by name into a consumer module are patched in
    that module's namespace, which is where the call resolves.  Returns
    a mutable counter dict the caller reads for ``os.fsync`` calls.
    """
    from repro.core.project import CompiledGame
    from repro.gateway import protocol
    from repro.gateway import server as gw_server
    from repro.persist import recovery, wal
    from repro.persist.snapshot import SnapshotStore
    from repro.replicate import replica as repl_replica
    from repro.replicate.source import ReplicationSource
    from repro.serve import manager as serve_manager
    from repro.serve import session as serve_session

    rec = recorder
    rec.patch(gw_server, "encode_frame", "gateway.frame_encode")
    rec.patch(gw_server, "ops_from_dicts", "gateway.ops_parse")
    decode = rec.wrap("gateway.frame_decode", protocol.FrameDecoder.feed)
    plain_feed = protocol.FrameDecoder.feed

    def feed(self, data):  # the replication link reuses the decoder
        if self.frame_types is protocol.FRAME_TYPES:
            return decode(self, data)
        return plain_feed(self, data)

    protocol.FrameDecoder.feed = feed
    rec.patch(serve_manager.SessionManager, "submit", "serve.submit")
    rec.patch(serve_session.ServedSession, "step", "serve.step")
    rec.patch(serve_session, "apply_scripted_op", "runtime.apply_op")
    rec.patch(CompiledGame, "new_engine", "runtime.new_engine")
    rec.patch(gw_server, "state_digest", "runtime.digest")
    rec.patch(wal.Journal, "append", "persist.append")
    rec.patch(wal.Journal, "wait_durable", "persist.wait_durable")
    rec.patch(SnapshotStore, "write", "persist.snapshot_write")
    rec.patch(serve_manager, "recover_shard", "persist.recover_shard")
    rec.patch(recovery, "scan_journal", "persist.scan_journal")
    rec.patch(recovery, "rebuild_engine", "persist.rebuild_engine")
    rec.patch(ReplicationSource, "wait_quorum", "replicate.quorum_wait")
    rec.patch(repl_replica, "apply_scripted_op", "replicate.standby_apply")

    fsyncs = {"n": 0}
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs["n"] += 1
        return real_fsync(fd)

    os.fsync = counting_fsync
    return fsyncs
