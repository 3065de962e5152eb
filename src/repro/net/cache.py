"""Client-side segment cache with bounded memory.

``StreamSession`` assumes every fetched segment stays resident — fine
for a classroom game, wrong for a semester-long course on a set-top box
with tens of megabytes of RAM (§2's interactive-TV setting).  The
:class:`SegmentCache` bounds residency in bytes with pluggable eviction:

``lru``
    Evict the least-recently-*played* segment — the default, exploits
    the strong locality of scenario revisits (hub-and-spoke games).
``fifo``
    Evict in arrival order — the ablation baseline.
``graph``
    Evict the segment whose scenario is *farthest* (in transitions) from
    the player's current scenario — uses the branching structure the
    platform uniquely has; never evicts a neighbour the player might
    switch to next.

The cache is a pure bookkeeping model (segments are ids + sizes); the
cached-stream simulator counts *refetches* — every eviction the player
later regrets costs a full segment stall.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..graph import ScenarioGraph
from ..obs import logging as _obslog
from ..obs import metrics as _obs

__all__ = ["CacheStats", "EVICTION_POLICIES", "SegmentCache"]

_LOG = _obslog.get_logger("net.cache")

EVICTION_POLICIES = ("lru", "fifo", "graph")

_M_HITS = _obs.counter(
    "repro_cache_hits_total",
    "Segment-cache playback hits, by eviction policy",
)
_M_MISSES = _obs.counter(
    "repro_cache_misses_total",
    "Segment-cache playback misses, by eviction policy",
)
_M_REFETCHES = _obs.counter(
    "repro_cache_refetches_total",
    "Misses on previously-cached segments (regretted evictions)",
)
_M_EVICTIONS = _obs.counter(
    "repro_cache_evictions_total",
    "Segments evicted, by eviction policy",
)
_M_BYTES_EVICTED = _obs.counter(
    "repro_cache_bytes_evicted_total",
    "Bytes evicted from segment caches, by eviction policy",
)


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction accounting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    refetches: int = 0  #: misses on segments that were previously cached
    bytes_evicted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SegmentCache:
    """Byte-bounded segment cache with pluggable eviction."""

    def __init__(
        self,
        capacity_bytes: int,
        policy: str = "lru",
        graph: Optional[ScenarioGraph] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if policy not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; known: {EVICTION_POLICIES}"
            )
        if policy == "graph" and graph is None:
            raise ValueError("graph policy needs the scenario graph")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.graph = graph
        #: segment id → size; order = recency (most recent last) for lru,
        #: insertion for fifo.
        self._resident: "OrderedDict[int, int]" = OrderedDict()
        #: running byte total of ``_resident`` — the eviction loop used
        #: to re-sum the whole OrderedDict per iteration (O(n) per
        #: evicted segment); kept incrementally instead.
        self._resident_bytes = 0
        self._ever_cached: Set[int] = set()
        #: segment id → scenario id (for the graph policy)
        self._scenario_of: Dict[int, str] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return self._resident_bytes

    @property
    def resident_segments(self) -> List[int]:
        return list(self._resident)

    def contains(self, segment_id: int) -> bool:
        return segment_id in self._resident

    # ------------------------------------------------------------------
    def access(
        self,
        segment_id: int,
        size: int,
        scenario_id: Optional[str] = None,
        current_scenario: Optional[str] = None,
    ) -> bool:
        """Record a playback access; returns True on a cache hit.

        On a miss the segment is admitted, evicting per policy until it
        fits.  ``scenario_id`` labels the segment for the graph policy;
        ``current_scenario`` is the player's position (eviction anchor).
        """
        if size <= 0:
            raise ValueError("segment size must be positive")
        if size > self.capacity_bytes:
            raise ValueError(
                f"segment of {size} bytes cannot fit in a "
                f"{self.capacity_bytes}-byte cache"
            )
        if scenario_id is not None:
            self._scenario_of[segment_id] = scenario_id

        if segment_id in self._resident:
            self.stats.hits += 1
            _M_HITS.inc(policy=self.policy)
            if self.policy == "lru":
                self._resident.move_to_end(segment_id)
            return True

        self.stats.misses += 1
        _M_MISSES.inc(policy=self.policy)
        if segment_id in self._ever_cached:
            self.stats.refetches += 1
            _M_REFETCHES.inc(policy=self.policy)
            if _obs.enabled():
                # A refetch is a regretted eviction: a real player stalls.
                _LOG.warning(
                    "cache.refetch",
                    segment=segment_id,
                    scenario=scenario_id,
                    policy=self.policy,
                )
        self._ever_cached.add(segment_id)
        if self._resident_bytes + size > self.capacity_bytes:
            self._evict_until_fits(size, current_scenario)
        self._resident[segment_id] = size
        self._resident_bytes += size
        return False

    def _evict_until_fits(
        self, incoming: int, current_scenario: Optional[str]
    ) -> None:
        """Evict per policy until ``incoming`` bytes fit.

        The graph policy's distance map is computed once per admission,
        not once per evicted segment — one admission may evict many
        small segments and the shortest-path tree does not change while
        it does.
        """
        distances: Optional[Dict[str, int]] = None
        if self.policy == "graph" and current_scenario is not None:
            distances = self.graph.distances(current_scenario)
        while self._resident_bytes + incoming > self.capacity_bytes:
            self._evict_one(distances)

    def _evict_one(self, distances: Optional[Dict[str, int]]) -> None:
        if not self._resident:  # pragma: no cover - guarded by size check
            raise RuntimeError("cache invariant violated: nothing to evict")
        if self.policy in ("lru", "fifo"):
            victim, size = next(iter(self._resident.items()))
        else:
            victim, size = self._graph_victim(distances)
        del self._resident[victim]
        self._resident_bytes -= size
        self.stats.evictions += 1
        self.stats.bytes_evicted += size
        _M_EVICTIONS.inc(policy=self.policy)
        _M_BYTES_EVICTED.inc(size, policy=self.policy)
        if _obs.enabled():
            _LOG.debug(
                "cache.evict",
                sample=0.5,
                segment=victim,
                bytes=size,
                policy=self.policy,
            )

    def _graph_victim(
        self, distances: Optional[Dict[str, int]]
    ) -> Tuple[int, int]:
        """Farthest-from-player resident segment (ties: oldest); the
        oldest when the player's position is unknown."""
        if distances is None:
            return next(iter(self._resident.items()))
        best: Optional[Tuple[int, int]] = None
        best_dist = -1
        for seg, size in self._resident.items():
            sid = self._scenario_of.get(seg)
            dist = distances.get(sid, 10**9)  # unreachable = farthest
            if dist > best_dist:
                best_dist = dist
                best = (seg, size)
        assert best is not None
        return best


def simulate_cached_playback(
    reader,
    graph: ScenarioGraph,
    path: Sequence[Tuple[str, float]],
    capacity_bytes: int,
    policy: str = "lru",
) -> CacheStats:
    """Replay a visit path through a bounded cache; returns the stats.

    A convenience driver shared by the cache ablation bench and tests:
    every visit accesses the scenario's segment; misses after the first
    ever access are refetches (a real player would stall).
    """
    cache = SegmentCache(capacity_bytes, policy=policy, graph=graph)
    for scenario_id, _dwell in path:
        seg = graph.scenarios[scenario_id].segment_ref
        size = reader.index[seg].byte_size
        cache.access(
            seg, size, scenario_id=scenario_id, current_scenario=scenario_id
        )
    return cache.stats
