"""Cluster control plane: placement, quorum commit, routed failover.

This package turns the single-standby replication of
:mod:`repro.replicate` into a small cluster:

* :mod:`~repro.cluster.placement` — the versioned
  :class:`PlacementMap` (shard → primary + ordered standbys,
  epoch-fenced) and :func:`plan_placement`, which lists every standby
  on every shard, rotated per shard;
* :mod:`~repro.cluster.gateway` — :class:`ClusterGateway`, routing
  reads to the least-lagged live standby and
  failing writes over the moment the map's epoch advances;
* :mod:`~repro.cluster.supervisor` — :class:`ClusterSupervisor`, the
  one-process node-set harness (tests, benches, ``repro cluster``);
* the kill-a-quorum-member audit is the quorum topology of
  :func:`repro.faultline.chaos.run_chaos`
  (``repro chaos --plan repl-quorum-partition``).
"""

from .gateway import ClusterGateway
from .placement import (
    NodeInfo,
    PlacementMap,
    ShardAssignment,
    plan_placement,
)
from .supervisor import ClusterSupervisor

__all__ = [
    "ClusterGateway",
    "ClusterSupervisor",
    "NodeInfo",
    "PlacementMap",
    "ShardAssignment",
    "plan_placement",
]
