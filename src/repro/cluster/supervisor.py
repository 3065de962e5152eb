"""One-process cluster: primary, standbys, placement, routing, failover.

The :class:`ClusterSupervisor` is the harness the cluster tests,
benches and the ``repro cluster`` CLI share: it launches a persisted
:class:`~repro.serve.manager.SessionManager` primary, a
:class:`~repro.replicate.source.ReplicationSource` shipping its WAL,
and N :class:`~repro.replicate.replica.StandbyReplica` followers, each
mirroring every shard, placed by :func:`plan_placement` — then wires a
:class:`~repro.cluster.gateway.ClusterGateway` over the lot so callers
see one ``submit``/``query`` surface.

Everything runs in this process (threads, loopback TCP), which is the
point: a kill is a method call, a failover is observable end to end,
and the chaos audit can hold the whole cluster in one assertion.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from time import monotonic
from typing import Any, Callable, Dict, List, Optional, Union

from ..obs import logging as _obslog
from ..persist import PersistenceConfig, scan_journal
from ..replicate.promote import Promoter, PromotionReport
from ..replicate.replica import StandbyReplica
from ..replicate.source import ReplicationSource
from ..serve import ServeConfig, SessionManager
from .gateway import ClusterGateway
from .placement import NodeInfo, PlacementMap, plan_placement

__all__ = ["ClusterSupervisor"]

_LOG = _obslog.get_logger("cluster")

PRIMARY_ID = "primary"

#: pacing of every manager the supervisor starts, primary or promoted
TICK_INTERVAL_S = 0.005
MAX_STEPS_PER_TICK = 8


class ClusterSupervisor:
    """Launches and steers the node set of one single-primary cluster."""

    def __init__(
        self,
        game: Any,
        *,
        n_shards: int = 2,
        n_standbys: int = 3,
        quorum: int = 0,
        root: Optional[Union[str, Path]] = None,
        durable_wait_s: float = 5.0,
        batch_max_records: int = 64,
        poll_interval_s: float = 0.01,
        heartbeat_s: float = 0.05,
    ) -> None:
        if n_standbys < 1:
            raise ValueError("n_standbys must be >= 1")
        if quorum > n_standbys:
            raise ValueError(
                f"quorum {quorum} cannot exceed n_standbys {n_standbys}"
            )
        self.game = game
        self.n_shards = n_shards
        self.n_standbys = n_standbys
        self.quorum = quorum
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            root = self._tmp.name
        self.root = Path(root)
        self.durable_wait_s = durable_wait_s
        self.batch_max_records = batch_max_records
        self.poll_interval_s = poll_interval_s
        self.heartbeat_s = heartbeat_s

        self.persistence: Optional[PersistenceConfig] = None
        self.manager: Optional[SessionManager] = None
        self.source: Optional[ReplicationSource] = None
        self.placement: Optional[PlacementMap] = None
        self.gateway: Optional[ClusterGateway] = None
        self.standbys: Dict[str, StandbyReplica] = {}
        #: node ids whose process-equivalent was killed by this harness
        self.killed: List[str] = []
        #: live sessions the last ``promote(recover=True)`` rebuilt
        self.recovered_live = 0
        self._started = False
        self._primary_alive = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "ClusterSupervisor":
        if self._started:
            raise RuntimeError("cluster already started")
        self._started = True
        try:
            self._launch()
        except BaseException:
            # ``with`` never reaches __exit__ when start raises: take
            # down whatever came up before the failing step
            self.stop()
            raise
        return self

    def _launch(self) -> None:
        self.manager = self._new_manager(self.root / PRIMARY_ID, self.quorum)
        self.persistence = self.manager.config.persistence
        self.source = ReplicationSource(
            self.persistence, self.n_shards,
            batch_max_records=self.batch_max_records,
            poll_interval_s=self.poll_interval_s,
            heartbeat_s=self.heartbeat_s,
        ).start()
        # before start(): shard journals take the hook as they open
        self.source.attach(self.manager)
        self.manager.start()
        self._primary_alive = True

        standby_ids = [f"standby-{k + 1}" for k in range(self.n_standbys)]
        self.placement = plan_placement(
            self.n_shards,
            NodeInfo(PRIMARY_ID, "primary", self.source.host,
                     self.source.port or 0),
            [NodeInfo(nid, "standby") for nid in standby_ids],
        )
        self.gateway = ClusterGateway(self.placement)
        self.gateway.register(PRIMARY_ID, self.manager)
        for nid in standby_ids:
            replica = StandbyReplica(
                self.root / nid, self.game, self.n_shards,
                self.source.host, self.source.port or 0,
                client_name=nid,
            ).start()
            self.standbys[nid] = replica
            self.gateway.register(nid, replica)
        self.placement.save(self.root)
        _LOG.info("cluster.started", root=str(self.root),
                  shards=self.n_shards, standbys=standby_ids,
                  quorum=self.quorum)

    def stop(self) -> None:
        for replica in self.standbys.values():
            replica.stop()
        if self.source is not None:
            self.source.stop()
        if self.manager is not None:
            self.manager.shutdown(drain=False)
        self._primary_alive = False
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the one client surface ------------------------------------------
    def submit(self, player_id: str, factory: Callable[[str], Any]) -> bool:
        assert self.gateway is not None
        return self.gateway.submit(player_id, factory)

    def query(self, player_id: str) -> Dict[str, Any]:
        assert self.gateway is not None
        return self.gateway.query(player_id)

    # -- fault levers ----------------------------------------------------
    def kill_standby(self, node_id: str) -> None:
        """Stop one standby dead: no more acks, no more applies.

        Its old acks stay in the source's ledger (they *were* durable);
        quorum for new LSNs must now come from the survivors.
        """
        replica = self.standbys[node_id]
        replica.stop()
        self.killed.append(node_id)
        _LOG.warning("cluster.standby_killed", node=node_id)

    def kill_primary(self) -> None:
        """Discard-shutdown the primary and silence its heartbeats."""
        assert self.manager is not None and self.source is not None
        self.manager.shutdown(drain=False)
        self.source.stop()
        self._primary_alive = False
        self.killed.append(PRIMARY_ID)
        _LOG.warning("cluster.primary_killed")

    # -- failover --------------------------------------------------------
    def promote(self, node_id: str, *, recover: bool = False) -> PromotionReport:
        """Promote one standby now and advance the placement map to match.

        The caller decides when the primary is gone (a kill lever here,
        or :meth:`Promoter.wait_for_failure`).  Every shard fails over
        to ``node_id`` at the promotion's fenced epoch; the map's
        version bumps, so the very next :meth:`submit`
        through the gateway routes to the new primary — no manual
        reconfiguration.  With ``recover=True`` a fresh recovered
        :class:`SessionManager` over the promoted directory is
        registered as the node's write surface.
        """
        assert self.placement is not None and self.gateway is not None
        replica = self.standbys[node_id]
        report = Promoter(replica).promote(game=self.game)
        for row in report.shards:
            self.placement.advance(row["shard"], node_id, row["epoch"])
        self.placement.save(self.root)
        if recover:
            new_manager = self._new_manager(replica.directory)
            reports = new_manager.recover(self.game)
            self.recovered_live = sum(len(r.sessions) for r in reports)
            new_manager.start()
            self.manager = new_manager
            self.gateway.register(node_id, new_manager)
        return report

    def _new_manager(self, directory: Path, quorum: int = 0) -> SessionManager:
        """A manager with the cluster's pacing over ``directory``: the
        primary at start, a promoted standby's write surface later."""
        return SessionManager(ServeConfig(
            n_shards=self.n_shards,
            tick_interval_s=TICK_INTERVAL_S,
            max_steps_per_tick=MAX_STEPS_PER_TICK,
            persistence=PersistenceConfig(
                directory=directory,
                snapshot_every=0,
                compact=False,
                quorum_standbys=quorum,
            ),
            durable_wait_s=self.durable_wait_s,
        ))

    # -- introspection ---------------------------------------------------
    def primary_tips(self) -> Dict[int, int]:
        """Durable tip LSN per shard of the (possibly dead) primary."""
        assert self.persistence is not None
        return {
            shard: scan_journal(
                self.persistence.shard_dir(shard), truncate=False
            ).tip_lsn
            for shard in range(self.n_shards)
            if self.persistence.shard_dir(shard).is_dir()
        }

    def wait_caught_up(self, timeout_s: float = 30.0) -> bool:
        """Every live standby has applied the primary's durable tips."""
        tips = self.primary_tips()
        deadline = monotonic() + timeout_s
        for replica in self.standbys.values():
            if not replica.alive:
                continue
            if not replica.wait_caught_up(
                tips, timeout_s=max(0.0, deadline - monotonic())
            ):
                return False
        return True

    def status(self) -> Dict[str, Any]:
        """One JSON-able view of the whole cluster (the CLI prints it)."""
        assert self.placement is not None
        manager = self.manager
        return {
            "root": str(self.root),
            "quorum": self.quorum,
            "primary": {
                "node_id": PRIMARY_ID,
                "alive": self._primary_alive,
                "completed_sessions": (
                    manager.completed_sessions if manager is not None else 0
                ),
                "tips": {str(k): v for k, v in self.primary_tips().items()},
            },
            "placement": self.placement.to_dict(),
            "subscriptions": (
                self.source.subscriptions() if self.source is not None else {}
            ),
            "standbys": {
                nid: {
                    "alive": replica.alive,
                    "subscribed": list(range(self.n_shards)),
                    "status": replica.status(),
                }
                for nid, replica in self.standbys.items()
            },
            "killed": list(self.killed),
        }
