"""Load generation: replay cohort scripts against a SessionManager.

The generator is the client side of a load test: given a pool of
pre-planned :class:`~repro.students.scripts.PlayerScript` sessions, it
submits them as one open-loop burst, waits for the server to drain, and
reports what happened to each offered session — admitted or rejected,
completed or failed, and whether the drain finished.

Two generators share that design: :class:`LoadGenerator` drives a
:class:`~repro.serve.manager.SessionManager` in-process (isolates the
serving layer), while :class:`SocketLoadGenerator` drives a running
network gateway over real TCP connections (the whole edge: framing,
admission acks, END pushes, PING round trips).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.project import CompiledGame
from ..students.scripts import PlayerScript
from .manager import SessionManager
from .session import session_factory_for_script

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "SocketLoadGenerator",
    "SocketLoadReport",
]


@dataclass(slots=True)
class LoadReport:
    """What one load run offered and what became of it."""

    offered: int
    admitted: int
    rejected: int
    completed: int
    failed: int
    drained: bool


class LoadGenerator:
    """Submits scripted sessions to a manager as one burst."""

    def __init__(
        self,
        manager: SessionManager,
        game: CompiledGame,
        scripts: Sequence[PlayerScript],
    ) -> None:
        if not scripts:
            raise ValueError("need at least one player script")
        self.manager = manager
        # One factory per distinct script, reused round-robin: binding
        # is cheap but allocation-per-submit adds generator-side noise.
        self._factories = [session_factory_for_script(game, s) for s in scripts]
        self._scripts = list(scripts)

    def run(
        self,
        n_sessions: int,
        drain_timeout: Optional[float] = 60.0,
    ) -> LoadReport:
        """Offer ``n_sessions``, wait for the drain, report the outcome."""
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        admitted = 0
        rejected = 0
        for k in range(n_sessions):
            script = self._scripts[k % len(self._scripts)]
            factory = self._factories[k % len(self._factories)]
            player_id = f"{script.player_id}#{k}"
            if self.manager.submit(player_id, factory):
                admitted += 1
            else:
                rejected += 1
        drained = self.manager.drain(timeout=drain_timeout)
        return LoadReport(
            offered=n_sessions,
            admitted=admitted,
            rejected=rejected,
            completed=self.manager.completed_sessions,
            failed=self.manager.failed_sessions,
            drained=drained,
        )


# ----------------------------------------------------------------------
# Socket mode: the same offered load, but through the network gateway
# ----------------------------------------------------------------------

#: a socket load run measures one PING round trip per this many sessions
PING_EVERY = 8

@dataclass(slots=True)
class SocketLoadReport(LoadReport):
    """One gateway load run, as observed from the client side of TCP."""

    #: PING round-trip samples interleaved with the load (seconds)
    rtt_samples: List[float] = field(default_factory=list)


class SocketLoadGenerator:
    """Offers scripted sessions to a gateway over ``clients`` sockets.

    Sessions are spread round-robin across persistent client
    connections (a school lab, not one socket per student); each client
    pipelines its submissions, interleaves a PING every
    :data:`PING_EVERY` sessions so the report carries real frame round
    trips, and then waits for every END push.
    """

    def __init__(
        self,
        host: str,
        port: int,
        scripts: Sequence[PlayerScript],
        clients: int = 4,
        trace_sample: float = 0.0,
    ) -> None:
        if not scripts:
            raise ValueError("need at least one player script")
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError("trace_sample must be within [0, 1]")
        self.host = host
        self.port = port
        self.scripts = list(scripts)
        self.clients = clients
        #: fraction of submissions stamped with a request-trace id
        self.trace_sample = trace_sample

    def run(self, n_sessions: int, timeout: float = 120.0) -> SocketLoadReport:
        """Synchronous entry point: one ``asyncio.run`` per load run."""
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        return asyncio.run(self.run_async(n_sessions, timeout=timeout))

    async def run_async(
        self, n_sessions: int, timeout: float = 120.0
    ) -> SocketLoadReport:
        from ..gateway.client import GatewayClient, GatewayRejected

        pool = [
            GatewayClient(
                self.host, self.port,
                client_name=f"loadgen-{i}",
                request_timeout_s=timeout,
                trace_sample=self.trace_sample,
            )
            for i in range(min(self.clients, n_sessions))
        ]
        for client in pool:
            await client.connect()
        admitted = 0
        rejected = 0
        completed = 0
        failed = 0
        rtts: List[float] = []
        pending: List[tuple] = []  # (client, player_id)
        try:
            for k in range(n_sessions):
                script = self.scripts[k % len(self.scripts)]
                client = pool[k % len(pool)]
                player_id = f"{script.player_id}#{k}"
                try:
                    await client.submit(player_id, script.ops, dt=script.dt)
                except GatewayRejected:
                    rejected += 1
                    continue
                admitted += 1
                pending.append((client, player_id))
                if k % PING_EVERY == 0:
                    rtts.append(await client.ping())
            ends = await asyncio.gather(
                *(
                    client.wait_end(pid, timeout=timeout)
                    for client, pid in pending
                ),
                return_exceptions=True,
            )
            drained = True
            for end in ends:
                if isinstance(end, BaseException):
                    drained = False
                elif end.get("failed"):
                    failed += 1
                else:
                    completed += 1
        finally:
            for client in pool:
                await client.close()
        return SocketLoadReport(
            offered=n_sessions,
            admitted=admitted,
            rejected=rejected,
            completed=completed,
            failed=failed,
            drained=drained and admitted == completed + failed,
            rtt_samples=rtts,
        )
