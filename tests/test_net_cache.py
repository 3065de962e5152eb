"""Tests for the bounded segment cache and its eviction policies."""

import pytest

from repro.core import fetch_quest_game
from repro.graph import ScenarioGraph, build_graph
from repro.net import EVICTION_POLICIES, SegmentCache, simulate_cached_playback
from repro.video import FrameSize, VideoReader


class TestSegmentCacheBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            SegmentCache(0)
        with pytest.raises(ValueError):
            SegmentCache(100, policy="magic")
        with pytest.raises(ValueError):
            SegmentCache(100, policy="graph")  # needs a graph

    def test_hit_miss_accounting(self):
        cache = SegmentCache(100)
        assert cache.access(1, 40) is False   # miss
        assert cache.access(1, 40) is True    # hit
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_oversized_segment_rejected(self):
        cache = SegmentCache(100)
        with pytest.raises(ValueError):
            cache.access(1, 200)
        with pytest.raises(ValueError):
            cache.access(1, 0)

    def test_capacity_enforced(self):
        cache = SegmentCache(100)
        cache.access(1, 60)
        cache.access(2, 60)  # evicts 1
        assert cache.resident_bytes <= 100
        assert cache.stats.evictions == 1
        assert not cache.contains(1)

    def test_refetch_counted(self):
        cache = SegmentCache(100)
        cache.access(1, 60)
        cache.access(2, 60)   # evicts 1
        cache.access(1, 60)   # refetch!
        assert cache.stats.refetches == 1


class TestEvictionAccounting:
    def test_resident_bytes_invariant_random_workload(self):
        """The incremental byte total always equals the true sum.

        The eviction loop used to re-sum the OrderedDict per iteration;
        the running total must stay exact through arbitrary interleaved
        hits, misses, and multi-segment evictions.
        """
        import random

        rng = random.Random(42)
        for policy in ("lru", "fifo"):
            cache = SegmentCache(1000, policy=policy)
            for _ in range(500):
                cache.access(rng.randrange(40), rng.randrange(1, 400))
                assert cache.resident_bytes == sum(
                    cache._resident.values()
                )
                assert cache.resident_bytes <= cache.capacity_bytes

    def test_one_admission_can_evict_many(self):
        cache = SegmentCache(100, policy="lru")
        for seg in range(5):
            cache.access(seg, 20)
        cache.access(99, 100)  # needs the whole cache: evicts all five
        assert cache.stats.evictions == 5
        assert cache.resident_segments == [99]
        assert cache.resident_bytes == 100

    def test_graph_distances_computed_once_per_admission(self, monkeypatch):
        """A multi-eviction admission walks the graph exactly once."""
        game = fetch_quest_game(n_quests=3, size=FrameSize(64, 48)).build()
        graph = build_graph(game.scenarios, game.events, game.start)
        calls = {"n": 0}
        real = ScenarioGraph.distances

        def counting(self, source):
            calls["n"] += 1
            return real(self, source)

        monkeypatch.setattr(ScenarioGraph, "distances", counting)
        cache = SegmentCache(100, policy="graph", graph=graph)
        names = list(graph.scenarios)
        for k, name in enumerate(names[:4]):
            cache.access(10 + k, 25, scenario_id=name, current_scenario=name)
        calls["n"] = 0
        # Admitting a full-cache segment evicts all four residents but
        # must compute the shortest-path tree exactly once.
        cache.access(99, 100, scenario_id=names[0],
                     current_scenario=names[0])
        assert cache.stats.evictions == 4
        assert calls["n"] == 1


class TestLruVsFifo:
    def test_lru_keeps_hot_segment(self):
        cache = SegmentCache(100, policy="lru")
        cache.access(1, 40)
        cache.access(2, 40)
        cache.access(1, 40)   # touch 1: now 2 is the LRU victim
        cache.access(3, 40)   # evicts 2
        assert cache.contains(1)
        assert not cache.contains(2)

    def test_fifo_evicts_in_arrival_order(self):
        cache = SegmentCache(100, policy="fifo")
        cache.access(1, 40)
        cache.access(2, 40)
        cache.access(1, 40)   # hit: does not change FIFO order
        cache.access(3, 40)   # evicts 1 (oldest arrival)
        assert not cache.contains(1)
        assert cache.contains(2)


class TestGraphPolicy:
    @pytest.fixture(scope="class")
    def game_parts(self):
        game = fetch_quest_game(n_quests=3, size=FrameSize(64, 48)).build()
        reader = VideoReader(game.container)
        graph = build_graph(game.scenarios, game.events, game.start)
        return reader, graph

    def test_evicts_farthest_scenario(self, game_parts):
        reader, graph = game_parts
        sizes = {e.segment_id: e.byte_size for e in reader.index}
        seg_of = {sid: sc.segment_ref for sid, sc in graph.scenarios.items()}
        # Sized so exactly one eviction is needed to admit place-2.
        cap = (sizes[seg_of["hub"]] + sizes[seg_of["place-1"]]
               + max(sizes[seg_of["place-0"]], sizes[seg_of["place-2"]]))
        cache = SegmentCache(cap, policy="graph", graph=graph)
        cache.access(seg_of["hub"], sizes[seg_of["hub"]],
                     scenario_id="hub", current_scenario="hub")
        cache.access(seg_of["place-0"], sizes[seg_of["place-0"]],
                     scenario_id="place-0", current_scenario="place-0")
        cache.access(seg_of["place-1"], sizes[seg_of["place-1"]],
                     scenario_id="place-1", current_scenario="place-1")
        # Player is in place-1; admitting place-2 must evict a far
        # sibling (place-0), never the adjacent hub.
        cache.access(seg_of["place-2"], sizes[seg_of["place-2"]],
                     scenario_id="place-2", current_scenario="place-1")
        assert cache.contains(seg_of["hub"])
        assert not cache.contains(seg_of["place-0"])

    def test_simulated_playback_policies(self, game_parts):
        reader, graph = game_parts
        tour = [("hub", 5.0)]
        for k in range(3):
            tour += [(f"place-{k}", 5.0), ("hub", 5.0)]
        tour *= 2  # revisits: where caching matters
        total = sum(e.byte_size for e in reader.index)
        cap = int(total * 0.7)
        stats = {
            policy: simulate_cached_playback(reader, graph, tour, cap, policy)
            for policy in EVICTION_POLICIES
        }
        # LRU exploits the hub's recency; FIFO cannot.
        assert stats["lru"].refetches <= stats["fifo"].refetches
        assert stats["lru"].hit_rate >= stats["fifo"].hit_rate
        # All policies count identical accesses.
        n = len(tour)
        for s in stats.values():
            assert s.hits + s.misses == n

    def test_big_cache_never_evicts(self, game_parts):
        reader, graph = game_parts
        tour = [("hub", 1.0), ("place-0", 1.0), ("hub", 1.0)] * 3
        total = sum(e.byte_size for e in reader.index)
        stats = simulate_cached_playback(reader, graph, tour, total + 1, "lru")
        assert stats.evictions == 0
        assert stats.refetches == 0
