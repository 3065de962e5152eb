"""Load-generator side: server launch, wire client, telemetry and /proc.

One asyncio thread drives every connection.  The client speaks the
gateway protocol with :mod:`repro.gateway.protocol` directly (not
``GatewayClient``), so its own per-frame cost stays small and the
server, not the load generator, is what saturates.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from repro.gateway.protocol import (
    END,
    ERROR,
    HELLO,
    PING,
    STATE,
    SUBMIT,
    FrameDecoder,
    encode_frame,
)

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
CLK_TCK = os.sysconf("SC_CLK_TCK")
#: with two or more CPUs the load generator and the server each get one
#: of their own, so neither migrates onto the other's CPU mid-run
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = CPUS[-1] if len(CPUS) > 1 else None
CLIENT_CPU = CPUS[0] if len(CPUS) > 1 else None


class ServerProcess:
    """The gateway server in its own interpreter (see ``server.py``)."""

    def __init__(self, root: Path, *, standby: bool = False,
                 recover: bool = False, trace: bool = False,
                 wait_go: bool = False) -> None:
        cmd = [sys.executable, str(HERE / "server.py"), "--root", str(root)]
        cmd += ["--standby"] * standby + ["--recover"] * recover
        cmd += ["--trace"] * trace + ["--wait-go"] * wait_go
        if SERVER_CPU is not None:
            cmd += ["--cpu", str(SERVER_CPU)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(CHECKOUT / "src")
        env.pop("REPRO_OBS", None)
        self.t_launch = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=str(CHECKOUT), env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if wait_go:
            self._expect("LOADED")
            self.cpu_go = self.cpu_s()
            #: when recovery started: the "go" line below
            self.t_go = time.monotonic()
            self.proc.stdin.write("go\n")
            self.proc.stdin.flush()
        self.ready: Dict[str, Any] = json.loads(self._expect("READY "))
        self.port: int = self.ready["port"]
        self.telemetry_port: int = self.ready["telemetry_port"]

    def _expect(self, prefix: str) -> str:
        """Block on the server's next stdout line (no polling sleeps)."""
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            self.kill()
            raise RuntimeError(f"server failed to start: {line!r}")
        return line[len(prefix):]

    def cpu_s(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> Dict[str, Any]:
        """Drain and stop; returns the server's DONE summary."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=timeout)
        except BaseException:
            self.kill()
            raise
        for line in out.splitlines():
            if line.startswith("DONE "):
                return json.loads(line[5:])
        raise RuntimeError(f"server exited {self.proc.returncode} "
                           "without a DONE line")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class SpeedProbe:
    """``speedprobe.py`` on the server's CPU: how fast that CPU ran."""

    def __init__(self, period: float) -> None:
        cmd = [sys.executable, str(HERE / "speedprobe.py"),
               "--period", str(period)]
        if SERVER_CPU is not None:
            cmd += ["--cpu", str(SERVER_CPU)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.kill()
            raise RuntimeError(f"speed probe failed to start: {line!r}")

    def stop(self, timeout: float = 10.0) -> list:
        """Stop; returns the ``(monotonic time, loop CPU µs)`` samples."""
        try:
            out, _ = self.proc.communicate("stop\n", timeout=timeout)
        except BaseException:
            self.kill()
            raise
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Session:
    """Client-side record of one session."""

    __slots__ = ("pid", "script", "due", "sent", "acked", "ended",
                 "digest", "error")

    def __init__(self, pid: str, script: Any, due: float = 0.0) -> None:
        self.pid = pid
        self.script = script
        self.due = due
        self.sent = self.acked = self.ended = 0.0
        self.digest: Optional[str] = None
        self.error: Optional[str] = None


class Connection:
    """One gateway connection; frames demultiplexed to sessions."""

    def __init__(self, on_end: Callable[[Session], None]) -> None:
        self.on_end = on_end
        self.sessions: Dict[str, Session] = {}
        self.inflight = 0
        self.decoder = FrameDecoder()
        self._seq = 0
        self._waiters: Dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.idle = asyncio.Event()
        self.idle.set()

    async def open(self, port: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.writer = writer
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(reader))
        await self.request(HELLO, {"client": "perfbench"})

    async def request(self, ftype: int, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send a HELLO or PING and wait for its echo (matched by seq)."""
        self._seq += 1
        seq = self._seq
        fut = asyncio.get_running_loop().create_future()
        self._waiters[seq] = fut
        self.writer.write(encode_frame(ftype, dict(payload, seq=seq)))
        return await fut

    def submit(self, session: Session, trace: Optional[str] = None) -> None:
        script = session.script
        payload = {"player": session.pid, "ops": script.op_dicts,
                   "dt": script.dt}
        if trace is not None:
            payload["trace"] = trace
        self.sessions[session.pid] = session
        self.inflight += 1
        self.idle.clear()
        session.sent = time.monotonic()
        self.writer.write(encode_frame(SUBMIT, payload))

    def adopt(self, session: Session) -> None:
        """Expect an END for a session resumed on this connection."""
        self.sessions[session.pid] = session
        self.inflight += 1
        self.idle.clear()

    def finish(self, session: Session) -> None:
        """Settle ``session`` (ended now) and hand it to ``on_end``."""
        if session.ended:
            return
        session.ended = time.monotonic()
        self.inflight -= 1
        if self.inflight == 0:
            self.idle.set()
        self.on_end(session)

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for ftype, payload in self.decoder.feed(data):
                    self._dispatch(ftype, payload)
        finally:
            for session in list(self.sessions.values()):
                if not session.ended:
                    session.error = session.error or "disconnected"
                    self.finish(session)
            for fut in self._waiters.values():
                if not fut.done():
                    fut.set_exception(ConnectionError("connection closed"))

    def _dispatch(self, ftype: int, payload: Dict[str, Any]) -> None:
        seq = payload.get("seq")
        if ftype in (HELLO, PING) and seq in self._waiters:
            self._waiters.pop(seq).set_result(payload)
            return
        session = self.sessions.get(payload.get("player"))
        if ftype == STATE and session is not None:
            session.acked = session.acked or time.monotonic()
        elif ftype == END and session is not None:
            if payload.get("failed"):
                session.error = "failed"
            session.digest = payload.get("digest")
            self.finish(session)
        elif ftype == ERROR:
            if session is None:
                raise ConnectionError(f"gateway error {payload}")
            session.error = str(payload.get("code"))
            self.finish(session)

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._reader_task is not None:
            await self._reader_task


async def http_get(port: int, path: str) -> bytes:
    """GET one telemetry route (HTTP/1.0, Connection: close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n".encode())
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    if b" 200 " not in head.split(b"\r\n", 1)[0]:
        raise RuntimeError(f"GET {path}: {head[:80]!r}")
    return body


def parse_prometheus(text: str) -> Dict[str, float]:
    """Sum every sample of a family across its labels."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, _, value = line.rpartition(" ")
        name = name_labels.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals
