"""The versioned placement map: which node owns which shard.

A :class:`PlacementMap` is the cluster's single declarative answer to
"who serves shard *i*?": one primary node plus an *ordered* standby
list per shard (every standby mirrors every shard; the order is the
read router's tie-break), a monotonically increasing map **version**
(bumped on every assignment change), and a per-shard **epoch** reusing
the exact fencing currency of :mod:`repro.replicate.promote` — the
epoch in the map is the epoch in the shard's ``EPOCH`` sidecar, so a
router that trusts the map and a journal that fences stale primaries
agree on whose history is current.

The map is process-shared state (gateway, supervisor and CLI all read
it) behind one lock, JSON round-trippable so ``repro cluster status``
can inspect a cluster that is not in this process, and deliberately
mechanism-free: it says who *should* own what; the supervisor makes it
true and the :class:`~repro.cluster.gateway.ClusterGateway` routes by
it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs

__all__ = ["NodeInfo", "PlacementMap", "ShardAssignment", "plan_placement"]

_M_VERSION = _obs.gauge(
    "repro_placement_version",
    "Current placement-map version (bumps on every assignment change)",
)
_M_FAILOVERS = _obs.counter(
    "repro_placement_failovers_total",
    "Shards whose primary changed via PlacementMap.advance, by shard",
)

_LOG = _obslog.get_logger("cluster")

PLACEMENT_FILE = "PLACEMENT.json"


@dataclass(frozen=True, slots=True)
class NodeInfo:
    """One cluster member as the map knows it."""

    node_id: str
    kind: str = "standby"  # "primary" | "standby"
    host: str = ""
    port: int = 0

    @property
    def address(self) -> str:
        """``host:port`` when known, the node id otherwise."""
        return f"{self.host}:{self.port}" if self.host else self.node_id

    def to_dict(self) -> Dict[str, Any]:
        return {"node_id": self.node_id, "kind": self.kind,
                "host": self.host, "port": self.port}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "NodeInfo":
        return cls(
            node_id=str(doc["node_id"]),
            kind=str(doc.get("kind", "standby")),
            host=str(doc.get("host", "")),
            port=int(doc.get("port", 0)),
        )


@dataclass(slots=True)
class ShardAssignment:
    """One shard's row in the map: primary, ordered standbys, epoch."""

    shard: int
    primary: str
    standbys: Tuple[str, ...] = ()
    epoch: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {"shard": self.shard, "primary": self.primary,
                "standbys": list(self.standbys), "epoch": self.epoch}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ShardAssignment":
        return cls(
            shard=int(doc["shard"]),
            primary=str(doc["primary"]),
            standbys=tuple(str(s) for s in doc.get("standbys", [])),
            epoch=int(doc.get("epoch", 1)),
        )


class PlacementMap:
    """Versioned shard → (primary, ordered standbys, epoch) map."""

    def __init__(
        self,
        n_shards: int,
        *,
        version: int = 1,
        nodes: Optional[Dict[str, NodeInfo]] = None,
        entries: Optional[Dict[int, ShardAssignment]] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        self._version = version
        self._nodes: Dict[str, NodeInfo] = dict(nodes or {})
        self._entries: Dict[int, ShardAssignment] = dict(entries or {})
        self._lock = threading.Lock()
        if _obs.enabled():
            _M_VERSION.set(self._version)

    # -- reads (any thread) --------------------------------------------
    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def node(self, node_id: str) -> Optional[NodeInfo]:
        with self._lock:
            return self._nodes.get(node_id)

    def assignment(self, shard: int) -> ShardAssignment:
        with self._lock:
            entry = self._entries.get(shard)
            if entry is None:
                raise KeyError(f"shard {shard} has no assignment")
            return ShardAssignment(
                entry.shard, entry.primary, entry.standbys, entry.epoch
            )

    def primary_address(self, shard: Optional[int] = None) -> Optional[str]:
        """Address of the primary (for ``shard``, or the unique one).

        With ``shard=None`` and several distinct primaries, the lowest
        shard's primary is reported — good enough for an error detail
        whose job is "go *somewhere* writable".
        """
        with self._lock:
            if not self._entries:
                return None
            if shard is None:
                shard = min(self._entries)
            entry = self._entries.get(shard)
            if entry is None:
                return None
            node = self._nodes.get(entry.primary)
            return node.address if node is not None else entry.primary

    # -- writes --------------------------------------------------------
    def register_node(self, node: NodeInfo) -> None:
        with self._lock:
            self._nodes[node.node_id] = node

    def assign(
        self,
        shard: int,
        primary: str,
        standbys: Sequence[str] = (),
        epoch: int = 1,
    ) -> None:
        """(Re)assign one shard; bumps the map version."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range")
        with self._lock:
            self._entries[shard] = ShardAssignment(
                shard, primary, tuple(standbys), epoch
            )
            self._bump_locked()

    def advance(
        self, shard: int, new_primary: str, epoch: int
    ) -> ShardAssignment:
        """Fail the shard over: new primary, higher epoch, new version.

        The epoch must strictly advance — the same fencing rule the
        replication handshake enforces; a stale promotion cannot move
        the map backwards.
        """
        with self._lock:
            entry = self._entries.get(shard)
            if entry is None:
                raise KeyError(f"shard {shard} has no assignment")
            if epoch <= entry.epoch:
                raise ValueError(
                    f"epoch must advance (shard {shard}: "
                    f"{epoch} <= {entry.epoch})"
                )
            standbys = tuple(
                s for s in entry.standbys if s != new_primary
            )
            old_primary = entry.primary
            self._entries[shard] = ShardAssignment(
                shard, new_primary, standbys, epoch
            )
            node = self._nodes.get(new_primary)
            if node is not None and node.kind != "primary":
                self._nodes[new_primary] = NodeInfo(
                    node.node_id, "primary", node.host, node.port
                )
            self._bump_locked()
            _M_FAILOVERS.inc(shard=str(shard))
            _LOG.info("cluster.placement_advanced", shard=shard,
                      old=old_primary, new=new_primary, epoch=epoch,
                      version=self._version)
            return self._entries[shard]

    def _bump_locked(self) -> None:
        self._version += 1
        if _obs.enabled():
            _M_VERSION.set(self._version)

    # -- (de)serialization ----------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "n_shards": self.n_shards,
                "version": self._version,
                "nodes": [n.to_dict() for n in self._nodes.values()],
                "assignments": [
                    self._entries[s].to_dict()
                    for s in sorted(self._entries)
                ],
            }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "PlacementMap":
        nodes = {
            n["node_id"]: NodeInfo.from_dict(n)
            for n in doc.get("nodes", [])
        }
        entries = {
            int(a["shard"]): ShardAssignment.from_dict(a)
            for a in doc.get("assignments", [])
        }
        return cls(
            int(doc["n_shards"]),
            version=int(doc.get("version", 1)),
            nodes=nodes,
            entries=entries,
        )

    def save(self, root: Union[str, Path]) -> Path:
        """Durably persist the map under ``root`` (atomic replace)."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        path = root / PLACEMENT_FILE
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, root: Union[str, Path]) -> "PlacementMap":
        path = Path(root) / PLACEMENT_FILE
        return cls.from_dict(json.loads(path.read_text()))


def plan_placement(
    n_shards: int,
    primary: NodeInfo,
    standbys: Sequence[NodeInfo],
) -> PlacementMap:
    """Place one primary and a standby pool over ``n_shards`` shards.

    Every shard lists every standby, rotated by the shard index
    (``standbys[s % k:] + standbys[:s % k]``) so read ties spread over
    the pool.
    """
    pmap = PlacementMap(n_shards)
    pmap.register_node(NodeInfo(primary.node_id, "primary",
                                primary.host, primary.port))
    for node in standbys:
        pmap.register_node(NodeInfo(node.node_id, "standby",
                                    node.host, node.port))
    pool = [n.node_id for n in standbys]
    for shard in range(n_shards):
        k = shard % max(1, len(pool))
        pmap.assign(shard, primary.node_id, pool[k:] + pool[:k], epoch=1)
    return pmap
