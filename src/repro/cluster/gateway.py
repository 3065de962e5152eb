"""Placement-aware routing: reads to the least-lagged standby, writes
to whoever the map says is primary *now*.

A :class:`ClusterGateway` owns no sockets — it is the routing brain
shared by the in-process supervisor and the chaos harness.  It
consults the :class:`~repro.cluster.placement.PlacementMap` on every
call, so a failover that advances the map's epoch reroutes the very
next write with no reconfiguration: the gateway holds node *ids*, the
map resolves them to nodes.

* :meth:`submit` resolves the shard's current primary and forwards.
  When the map's epoch has advanced past what this gateway last saw,
  the switch is counted (``repro_placement_failover_routes_total``) —
  the observable moment a write "failed over".
* :meth:`query` ranks the shard's standbys by replication lag and
  asks the least-lagged live one first, falling through the order when
  a node does not know the player; the view carries that node's lag.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..serve.manager import shard_for
from .placement import PlacementMap

__all__ = ["ClusterGateway"]

_M_READS = _obs.counter(
    "repro_placement_reads_total",
    "QUERY reads routed via the placement map, by result",
)
_M_FAILOVER_ROUTES = _obs.counter(
    "repro_placement_failover_routes_total",
    "Writes rerouted because the map's epoch advanced, by shard",
)

_LOG = _obslog.get_logger("cluster")


class ClusterGateway:
    """Routes submits and queries through the placement map."""

    def __init__(self, placement: PlacementMap) -> None:
        self.placement = placement
        #: node id -> live object: a ``SessionManager`` for primaries,
        #: a ``StandbyReplica`` (or promoted equivalent) for standbys
        self._nodes: Dict[str, Any] = {}
        self._lock = threading.Lock()
        #: shard -> last epoch a write was routed under; a jump means
        #: the map failed the shard over underneath us
        self._seen_epochs: Dict[int, int] = {}

    # -- node registry --------------------------------------------------
    def register(self, node_id: str, obj: Any) -> None:
        """Bind a node id from the map to its live in-process object."""
        with self._lock:
            self._nodes[node_id] = obj

    def resolve(self, node_id: str) -> Optional[Any]:
        with self._lock:
            return self._nodes.get(node_id)

    # -- writes ---------------------------------------------------------
    def submit(self, player_id: str, factory: Callable[[str], Any]) -> bool:
        """Forward one session submit to the shard's current primary.

        Consults the map per call: after ``PlacementMap.advance`` the
        next submit lands on the promoted node with zero manual steps.
        """
        shard = shard_for(player_id, self.placement.n_shards)
        entry = self.placement.assignment(shard)
        seen = self._seen_epochs.get(shard)
        if seen is not None and entry.epoch > seen:
            _M_FAILOVER_ROUTES.inc(shard=str(shard))
            _LOG.info("cluster.write_failover", shard=shard,
                      primary=entry.primary, epoch=entry.epoch)
        self._seen_epochs[shard] = entry.epoch
        primary = self.resolve(entry.primary)
        if primary is None:
            raise KeyError(
                f"primary {entry.primary!r} for shard {shard} is not "
                f"registered with this gateway"
            )
        return bool(primary.submit(player_id, factory))

    # -- reads ----------------------------------------------------------
    def query(self, player_id: str) -> Dict[str, Any]:
        """Read from the least-lagged standby of the shard.

        Candidate order: the shard's standbys sorted by current lag
        (unregistered nodes skipped, dead ones last), then the primary,
        if it can answer queries (a promoted replica can; a live
        ``SessionManager`` cannot and is skipped).  A candidate that
        does not know the player passes to the next; ``KeyError`` when
        none does.
        """
        shard = shard_for(player_id, self.placement.n_shards)
        entry = self.placement.assignment(shard)
        candidates = []
        for node_id in entry.standbys + (entry.primary,):
            obj = self.resolve(node_id)
            if obj is None or not hasattr(obj, "query"):
                continue
            if not getattr(obj, "alive", True):
                # a dead standby still answers from its warm mirror
                # only when nothing healthier owns the shard
                candidates.append((float("inf"), len(candidates), node_id, obj))
                continue
            try:
                lag = obj.lag(shard)
            except (KeyError, IndexError, AttributeError):
                continue
            candidates.append((lag, len(candidates), node_id, obj))
        for _lag, _order, node_id, obj in sorted(candidates):
            try:
                view = dict(obj.query(player_id))
            except KeyError:
                continue
            view["node"] = node_id
            view["placement_version"] = self.placement.version
            _M_READS.inc(result="ok")
            return view
        _M_READS.inc(result="miss")
        raise KeyError(player_id)
