"""Cluster control plane: placement map, routed gateway, quorum commit.

Unit coverage for :mod:`repro.cluster` — the map's fencing and
rotated every-standby planning, the gateway's lag-ranked read routing and
epoch-triggered write failover (against in-memory fakes), plus one
small end-to-end quorum cluster, one seeded chaos audit and the
``repro cluster`` CLI.
"""

import json
import socket
import threading
import time

import pytest

from repro import obs
from repro.cli import main
from repro.cluster import (
    ClusterGateway,
    ClusterSupervisor,
    NodeInfo,
    PlacementMap,
    plan_placement,
)
from repro.faultline.chaos import reference_digest, run_chaos
from repro.replicate.protocol import R_ERROR, R_HANDSHAKE, encode, make_decoder
from repro.serve import session_factory_for_script, shard_for
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
        # every shard lists every standby, rotated so the first choice
        # for reads interleaves over the pool
        primary, standbys = self._nodes(3)
        pmap = plan_placement(4, primary, standbys)
        rotations = [
            ("s0", "s1", "s2"), ("s1", "s2", "s0"),
            ("s2", "s0", "s1"), ("s0", "s1", "s2"),
        ]
        for shard, order in enumerate(rotations):
            entry = pmap.assignment(shard)
            assert entry.primary == "p0"
            assert entry.epoch == 1
            assert entry.standbys == order
        firsts = {pmap.assignment(s).standbys[0] for s in range(4)}
        assert firsts == {node.node_id for node in standbys}

    def test_every_shard_survives_any_single_standby_loss(self):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(4, primary, standbys)
        for victim in standbys:
            for shard in range(4):
                survivors = [
                    s for s in pmap.assignment(shard).standbys
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
        assert pmap.assignment(1).primary == "p0"

    def test_save_load_round_trip(self, tmp_path):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(3, primary, standbys)
        pmap.advance(1, "s1", epoch=5)
        path = pmap.save(tmp_path)
        assert path.name == "PLACEMENT.json"
        loaded = PlacementMap.load(tmp_path)
        assert loaded.to_dict() == pmap.to_dict()
        assert loaded.assignment(1).epoch == 5

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
    def __init__(self, lag=0, view=None, alive=True):
        self._lag = lag
        self._view = view
        self.alive = alive
        self.queried = []

    def lag(self, shard):
        return self._lag

    def query(self, player_id):
        self.queried.append(player_id)
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
            classroom_game, n_shards=N_SHARDS, n_standbys=3, quorum=1,
        ) as supervisor:
            for k, script in enumerate(scripts):
                assert supervisor.submit(
                    f"{script.player_id}#q{k}",
                    session_factory_for_script(classroom_game, script),
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
                base = session_factory_for_script(classroom_game, script)

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

    def test_every_standby_mirrors_every_shard(
        self, classroom_game, scripts, live
    ):
        # quorum 2 of 2: every END needs both standbys on its shard
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=2, quorum=2,
        ) as supervisor:
            timeouts_before = _counter_total("repro_quorum_timeouts_total")
            pids = [f"{script.player_id}#m{k}"
                    for k, script in enumerate(scripts)]
            for pid, script in zip(pids, scripts):
                assert supervisor.submit(
                    pid, session_factory_for_script(classroom_game, script),
                )
            assert supervisor.manager.drain(timeout=60)
            assert supervisor.wait_caught_up(timeout_s=30)
            assert _counter_total(
                "repro_quorum_timeouts_total"
            ) == timeouts_before
            every = list(range(N_SHARDS))
            assert supervisor.source.subscriptions() == {
                "standby-1": every, "standby-2": every,
            }
            for node_id, replica in supervisor.standbys.items():
                assert replica.status()["subscribed"] == every
                assert supervisor.status()["standbys"][node_id][
                    "subscribed"
                ] == every
                assert set(pids) <= set(replica.digests())

    def test_promote_moves_every_shard(self, classroom_game, scripts):
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=3, quorum=1,
        ) as supervisor:
            supervisor.kill_primary()
            supervisor.promote("standby-1", recover=True)
            pids = {}
            k = 0
            while len(pids) < N_SHARDS:
                pids.setdefault(shard_for(f"after{k}", N_SHARDS), f"after{k}")
                k += 1
            for shard, pid in sorted(pids.items()):
                assert supervisor.placement.assignment(shard).primary == (
                    "standby-1"
                )
                assert supervisor.submit(pid, session_factory_for_script(
                    classroom_game, scripts[shard],
                )), f"shard {shard} refused its post-failover SUBMIT"
            assert supervisor.manager.drain(timeout=60)
            assert supervisor.manager.completed_sessions == N_SHARDS

    def test_handshake_rejects_out_of_range_shard(self, classroom_game):
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=1,
        ) as supervisor:
            source = supervisor.source
            with socket.create_connection(
                (source.host, source.port), timeout=5
            ) as conn:
                conn.sendall(encode(R_HANDSHAKE, {
                    "shard": N_SHARDS, "start": 1, "epoch": 1,
                    "client": "tester",
                }))
                decoder = make_decoder()
                frames = []
                while not frames:
                    data = conn.recv(65536)
                    assert data, "source hung up without an error frame"
                    frames = decoder.feed(data)
                ftype, payload = frames[0]
        assert ftype == R_ERROR
        assert payload["code"] == "bad_shard"

    def test_failed_start_stops_what_it_started(
        self, classroom_game, tmp_path
    ):
        # a directory where the map goes: the last start step raises
        (tmp_path / "PLACEMENT.json").mkdir()
        before = set(threading.enumerate())
        supervisor = ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=2, root=tmp_path,
        )
        with pytest.raises(OSError):
            with supervisor:
                pass
        prefixes = ("repro-serve-", "repro-persist-flusher-", "repro-repl-")
        deadline = time.monotonic() + 5.0
        while True:
            leaked = [
                t.name for t in threading.enumerate()
                if t not in before and t.name.startswith(prefixes)
            ]
            if not leaked or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        assert not leaked, f"threads left running: {sorted(leaked)}"
        with pytest.raises(OSError):
            socket.create_connection(
                (supervisor.source.host, supervisor.source.port), timeout=1,
            ).close()


class TestClusterChaos:
    def test_seeded_chaos_audit_passes(self, classroom_game):
        report = run_chaos(
            "repl-quorum-partition", seed=4321, sessions=6, n_shards=N_SHARDS,
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
            run_chaos(
                "repl-quorum-partition", sessions=2, n_shards=1, n_standbys=2, quorum=2,
                game=classroom_game,
            )


class TestCli:
    def test_serve_then_status(self, tmp_path, capsys, live):
        root = tmp_path / "cluster"
        assert main([
            "cluster", "serve", str(root), "--duration", "0.3",
            "--standbys", "2",
        ]) == 0
        assert f"placement saved under {root}" in capsys.readouterr().out

        assert main(["cluster", "status", str(root)]) == 0
        out = capsys.readouterr().out
        assert "Placement v" in out and "Nodes" in out
        assert "standby-1" in out and "standby-2" in out

        assert main(["cluster", "status", str(root), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_shards"] == N_SHARDS
        assert [a["shard"] for a in doc["assignments"]] == [0, 1]
        for a in doc["assignments"]:
            assert a["primary"] == "primary" and a["epoch"] == 1
            assert sorted(a["standbys"]) == ["standby-1", "standby-2"]
        assert sorted(n["node_id"] for n in doc["nodes"]) == [
            "primary", "standby-1", "standby-2",
        ]

    def test_serve_three_standbys_on_two_shards(self, tmp_path, capsys):
        root = tmp_path / "cluster"
        assert main([
            "cluster", "serve", str(root), "--duration", "0.3",
            "--standbys", "3", "--quorum", "2",
        ]) == 0
        capsys.readouterr()
        assert main(["cluster", "status", str(root), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [sorted(a["standbys"]) for a in doc["assignments"]] == [
            ["standby-1", "standby-2", "standby-3"],
        ] * N_SHARDS

    def test_replicas_per_shard_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "cluster", "serve", str(tmp_path), "--duration", "0.1",
                "--standbys", "3", "--replicas-per-shard", "1",
            ])
        assert exc.value.code == 2
        assert "--replicas-per-shard" in capsys.readouterr().err

    def test_status_without_a_map_exits_2(self, tmp_path, capsys):
        assert main(["cluster", "status", str(tmp_path)]) == 2
        assert "no PLACEMENT.json" in capsys.readouterr().err
