"""The serving layer: many concurrent engine sessions, one process.

``repro.serve`` scales the single-player VGBL runtime into a sharded
multi-session game server — the deployment gap between the paper's
one-student prototype and a platform serving a school district:

* :class:`~repro.serve.manager.SessionManager` — N thread-per-shard
  workers, sessions hash-partitioned by player id, batched paced tick
  scheduling, admission control with backpressure, graceful drain;
* :class:`~repro.serve.session.ServedSession` — one scripted engine run,
  owned by exactly one shard (lock-free stepping);
* :class:`~repro.serve.loadgen.LoadGenerator` — submits
  :mod:`repro.students` cohort scripts as one burst and waits for the
  drain.

With ``ServeConfig(persistence=PersistenceConfig(directory=...))`` the
server becomes crash-recoverable: each shard owns a write-ahead journal
(:mod:`repro.persist`) and ``SessionManager.recover()`` rebuilds every
committed session after a restart.

Everything is instrumented through :mod:`repro.obs` (per-shard tick
histograms, active/queue gauges, admission counters) and asserted by the
serve rules in ``examples/slo.toml``.
"""

from ..persist import PersistenceConfig
from .loadgen import (
    LoadGenerator,
    LoadReport,
    SocketLoadGenerator,
    SocketLoadReport,
)
from .manager import ServeConfig, SessionManager, shard_for
from .session import (
    ServedSession,
    play_to_completion,
    session_factory_for_script,
)

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "PersistenceConfig",
    "ServeConfig",
    "ServedSession",
    "SessionManager",
    "SocketLoadGenerator",
    "SocketLoadReport",
    "play_to_completion",
    "session_factory_for_script",
    "shard_for",
]
