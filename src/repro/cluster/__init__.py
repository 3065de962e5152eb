"""Cluster control plane: placement, quorum commit, routed failover.

This package turns the single-standby replication of
:mod:`repro.replicate` into a small cluster:

* :mod:`~repro.cluster.placement` — the versioned
  :class:`PlacementMap` (shard → primary + ordered standby subset,
  epoch-fenced) and :func:`plan_placement`, the round-robin subset
  planner;
* :mod:`~repro.cluster.gateway` — :class:`ClusterGateway`, routing
  lag-bounded reads to the least-lagged standby owning the shard and
  failing writes over the moment the map's epoch advances;
* :mod:`~repro.cluster.supervisor` — :class:`ClusterSupervisor`, the
  one-process node-set harness (tests, benches, ``repro cluster``);
* :func:`run_cluster_chaos` — the kill-a-quorum-member audit behind
  ``repro chaos --plan repl-quorum-partition``, the quorum topology of
  :func:`repro.faultline.chaos.run_chaos`.
"""

from ..faultline.chaos import run_cluster_chaos
from .gateway import ClusterGateway
from .placement import (
    NodeInfo,
    PlacementMap,
    ShardAssignment,
    plan_placement,
)
from .supervisor import ClusterSupervisor, traced_factory

__all__ = [
    "ClusterGateway",
    "ClusterSupervisor",
    "NodeInfo",
    "PlacementMap",
    "ShardAssignment",
    "plan_placement",
    "run_cluster_chaos",
    "traced_factory",
]
