"""Cluster control plane: placement map, routed gateway, quorum commit.

Unit coverage for :mod:`repro.cluster` — the map's fencing and
round-robin planning, the gateway's lag-ranked read routing and
epoch-triggered write failover (against in-memory fakes), plus one
small end-to-end quorum cluster and one seeded chaos audit.
"""

import socket
import threading
import time

import pytest

from repro import obs
from repro.cluster import (
    ClusterGateway,
    ClusterSupervisor,
    NodeInfo,
    PlacementMap,
    plan_placement,
    run_cluster_chaos,
    traced_factory,
)
from repro.faultline.chaos import reference_digest
from repro.replicate import ReplicaLagging
from repro.replicate.protocol import R_ERROR, R_HANDSHAKE, encode, make_decoder
from repro.serve import session_factory_for_script
from repro.serve.manager import shard_for
from repro.students import cohort_scripts

N_SHARDS = 2


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=23)


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


class TestPlacementMap:
    def _nodes(self, n=3):
        primary = NodeInfo("p0", "primary", "127.0.0.1", 4000)
        standbys = [NodeInfo(f"s{k}") for k in range(n)]
        return primary, standbys

    def test_plan_interleaves_subsets(self):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(4, primary, standbys, replicas_per_shard=2)
        for shard in range(4):
            entry = pmap.assignment(shard)
            assert entry.primary == "p0"
            assert len(entry.standbys) == 2
            assert len(set(entry.standbys)) == 2
        # rotation: every standby carries some subset of the keyspace
        for node in standbys:
            assert pmap.shards_of(node.node_id)

    def test_every_shard_survives_any_single_standby_loss(self):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(4, primary, standbys, replicas_per_shard=2)
        for victim in standbys:
            for shard in range(4):
                survivors = [
                    s for s in pmap.standbys_for(shard)
                    if s != victim.node_id
                ]
                assert survivors, (
                    f"shard {shard} dies with {victim.node_id}"
                )

    def test_assign_bumps_version(self):
        pmap = PlacementMap(1)
        v0 = pmap.version
        pmap.assign(0, "p0", ("s0",))
        assert pmap.version == v0 + 1

    def test_advance_fences_stale_epochs(self):
        primary, standbys = self._nodes(2)
        pmap = plan_placement(2, primary, standbys)
        with pytest.raises(ValueError):
            pmap.advance(0, "s0", epoch=1)  # not strictly newer
        entry = pmap.advance(0, "s0", epoch=2)
        assert entry.primary == "s0"
        assert "s0" not in entry.standbys
        assert pmap.node("s0").kind == "primary"
        # shard 1 untouched
        assert pmap.primary_for(1) == "p0"

    def test_shards_of_covers_primary_and_standby_roles(self):
        primary, standbys = self._nodes(2)
        pmap = plan_placement(2, primary, standbys)
        assert pmap.shards_of("p0") == [0, 1]
        pmap.advance(1, "s0", epoch=2)
        assert 1 in pmap.shards_of("s0")
        assert pmap.shards_of("p0") == [0]

    def test_save_load_round_trip(self, tmp_path):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(3, primary, standbys, replicas_per_shard=2)
        pmap.advance(1, "s1", epoch=5)
        path = pmap.save(tmp_path)
        assert path.name == "PLACEMENT.json"
        loaded = PlacementMap.load(tmp_path)
        assert loaded.to_dict() == pmap.to_dict()
        assert loaded.epoch_of(1) == 5

    def test_primary_address(self):
        primary, standbys = self._nodes(1)
        pmap = plan_placement(1, primary, standbys)
        assert pmap.primary_address(0) == "127.0.0.1:4000"
        assert pmap.primary_address() == "127.0.0.1:4000"
        assert PlacementMap(1).primary_address() is None


class _FakePrimary:
    """Write target: submits recorded, no query surface (like a
    SessionManager, which must never serve placement-routed reads)."""

    def __init__(self):
        self.submitted = []

    def submit(self, player_id, factory):
        self.submitted.append(player_id)
        return True


class _FakeStandby:
    def __init__(self, lag=0, view=None, lagging=None, alive=True):
        self._lag = lag
        self._view = view
        self._lagging = lagging
        self.alive = alive
        self.queried = []

    def lag(self, shard):
        return self._lag

    def query(self, player_id):
        self.queried.append(player_id)
        if self._lagging is not None:
            raise self._lagging
        if self._view is None:
            raise KeyError(player_id)
        return dict(self._view)


class TestClusterGateway:
    def _gateway(self, n_shards=1):
        pmap = plan_placement(
            n_shards, NodeInfo("p0", "primary"),
            [NodeInfo("s0"), NodeInfo("s1")],
        )
        return ClusterGateway(pmap), pmap

    def test_submit_routes_to_mapped_primary(self):
        gw, _ = self._gateway()
        primary = _FakePrimary()
        gw.register("p0", primary)
        assert gw.submit("player", lambda pid: None)
        assert primary.submitted == ["player"]

    def test_submit_unregistered_primary_raises(self):
        gw, _ = self._gateway()
        with pytest.raises(KeyError):
            gw.submit("player", lambda pid: None)

    def test_query_prefers_least_lagged_standby(self):
        gw, _ = self._gateway()
        slow = _FakeStandby(lag=9, view={"status": "done"})
        fast = _FakeStandby(lag=0, view={"status": "done"})
        gw.register("p0", _FakePrimary())
        gw.register("s0", slow)
        gw.register("s1", fast)
        view = gw.query("player")
        assert view["node"] == "s1"
        assert fast.queried and not slow.queried
        assert view["placement_version"] == gw.placement.version

    def test_query_falls_through_lagging_standby(self):
        gw, _ = self._gateway()
        refusing = _FakeStandby(
            lag=0, lagging=ReplicaLagging(0, lag_ticks=7, bound=2)
        )
        answering = _FakeStandby(lag=3, view={"status": "done"})
        gw.register("s0", refusing)
        gw.register("s1", answering)
        assert gw.query("player")["node"] == "s1"

    def test_query_reraises_smallest_lag(self):
        gw, _ = self._gateway()
        gw.register("s0", _FakeStandby(
            lagging=ReplicaLagging(0, lag_ticks=50, bound=2)))
        gw.register("s1", _FakeStandby(
            lagging=ReplicaLagging(0, lag_ticks=4, bound=2)))
        with pytest.raises(ReplicaLagging) as err:
            gw.query("player")
        assert err.value.lag_ticks == 4
        assert err.value.shard == 0

    def test_query_unknown_everywhere_is_key_error(self):
        gw, _ = self._gateway()
        gw.register("s0", _FakeStandby())  # raises KeyError
        with pytest.raises(KeyError):
            gw.query("player")

    def test_dead_standby_is_last_resort(self):
        gw, _ = self._gateway()
        dead = _FakeStandby(lag=0, view={"status": "done"}, alive=False)
        lagged = _FakeStandby(lag=100, view={"status": "done"})
        gw.register("s0", dead)
        gw.register("s1", lagged)
        assert gw.query("player")["node"] == "s1"

    def test_epoch_advance_reroutes_next_write(self, live):
        gw, pmap = self._gateway()
        old = _FakePrimary()
        new = _FakePrimary()
        gw.register("p0", old)
        gw.register("s0", new)
        assert gw.submit("player", lambda pid: None)
        pmap.advance(0, "s0", epoch=2)
        before = _counter_total("repro_placement_failover_routes_total")
        assert gw.submit("player", lambda pid: None)
        assert old.submitted == ["player"]
        assert new.submitted == ["player"]
        after = _counter_total("repro_placement_failover_routes_total")
        assert after == before + 1


def _counter_total(name):
    from repro.obs import metrics as _metrics

    counter = _metrics.REGISTRY.get(name)
    return counter.total() if counter is not None else 0.0


class TestQuorumCluster:
    def test_quorum_end_to_end(self, classroom_game, scripts, live):
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=3,
            replicas_per_shard=2, quorum=1,
        ) as supervisor:
            for k, script in enumerate(scripts):
                assert supervisor.submit(
                    f"{script.player_id}#q{k}",
                    traced_factory(
                        session_factory_for_script(classroom_game, script)
                    ),
                )
            assert supervisor.manager.drain(timeout=60)
            assert supervisor.wait_caught_up(timeout_s=30)
            # quorum acks actually flowed
            assert _counter_total("repro_quorum_acks_total") > 0
            # placement-routed read answers from a standby mirror
            script = scripts[0]
            view = supervisor.query(f"{script.player_id}#q0")
            assert view["status"] == "done"
            assert view["node"].startswith("standby-")
            assert view["digest"] == reference_digest(
                classroom_game, script.ops, script.dt, len(script.ops),
            )
            status = supervisor.status()
            assert status["quorum"] == 1
            assert status["primary"]["alive"]
            # every standby subscribed to its planned subset only
            subset_sizes = []
            for node_id, info in status["standbys"].items():
                assert info["subscribed"] == (
                    supervisor.placement.shards_of(node_id)
                )
                subset_sizes.append(len(info["subscribed"]))
            # 2 replicas/shard over 3 standbys x 2 shards = 4 slots:
            # the subsets genuinely interleave, nobody mirrors it all
            assert sum(subset_sizes) == N_SHARDS * 2
            assert min(subset_sizes) < N_SHARDS

    def test_quorum_end_does_not_wait_out_the_poll_interval(
        self, classroom_game, scripts, live
    ):
        # Shipping is woken by each durable group commit, so a
        # quorum-gated END costs one ship/apply/ack round trip.  The
        # 2 s poll (and 5 s heartbeat) is only the fallback cadence: if
        # the wakeup came before the records were on disk, every END
        # here would wait out most of a poll tick.
        poll_s = 2.0
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=1, quorum=1,
            poll_interval_s=poll_s, heartbeat_s=5.0,
        ) as supervisor:
            deadline = time.monotonic() + 10.0
            while len(supervisor.source.subscriptions()) < 1:
                assert time.monotonic() < deadline, "standby never subscribed"
                time.sleep(0.005)
            timeouts_before = _counter_total("repro_quorum_timeouts_total")
            for k, script in enumerate(scripts[:2]):
                done = threading.Event()
                base = traced_factory(
                    session_factory_for_script(classroom_game, script)
                )

                def factory(pid, base=base, done=done):
                    session = base(pid)
                    session.on_done = lambda _s: done.set()
                    return session

                t0 = time.monotonic()
                assert supervisor.submit(f"{script.player_id}#w{k}", factory)
                assert done.wait(3 * poll_s), "traced END never settled"
                elapsed = time.monotonic() - t0
                assert elapsed < 0.5, (
                    f"quorum-gated END took {elapsed:.3f}s with a "
                    f"{poll_s}s poll interval"
                )
            assert _counter_total("repro_quorum_timeouts_total") == timeouts_before

    def test_handshake_rejects_unsubscribed_shard(self, classroom_game):
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=1,
        ) as supervisor:
            source = supervisor.source
            with socket.create_connection(
                (source.host, source.port), timeout=5
            ) as conn:
                conn.sendall(encode(R_HANDSHAKE, {
                    "shard": 1, "start": 1, "epoch": 1,
                    "subs": [0], "client": "tester",
                }))
                decoder = make_decoder()
                frames = []
                while not frames:
                    data = conn.recv(65536)
                    assert data, "source hung up without an error frame"
                    frames = decoder.feed(data)
                ftype, payload = frames[0]
        assert ftype == R_ERROR
        assert payload["code"] == "bad_subscription"

    def test_replica_lagging_carries_routing_attrs(self):
        err = ReplicaLagging(3, lag_ticks=11, bound=4)
        assert (err.shard, err.lag_ticks, err.bound) == (3, 11, 4)
        assert "shard 3" in str(err) and "11" in str(err)


class TestClusterChaos:
    def test_seeded_chaos_audit_passes(self, classroom_game):
        report = run_cluster_chaos(
            seed=4321, sessions=6, n_shards=N_SHARDS,
            n_standbys=3, quorum=2, game=classroom_game,
        )
        assert report.lost_records == 0
        assert report.bit_identical
        assert report.caught_up
        assert report.queries_ok == report.queries_total > 0
        assert report.post_failover_submit_ok
        assert report.quorum_timeouts == 0
        assert report.ok
        doc = report.to_dict()
        assert doc["standby_killed"] == "standby-3"
        assert doc["promoted"] in ("standby-1", "standby-2")
        import json

        json.dumps(doc)  # the CLI writes this verbatim

    def test_quorum_must_leave_a_survivor(self, classroom_game):
        with pytest.raises(ValueError):
            run_cluster_chaos(
                sessions=2, n_shards=1, n_standbys=2, quorum=2,
                game=classroom_game,
            )
