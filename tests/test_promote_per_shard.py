"""Known defect: one standby takes over every shard at failover.

``ClusterSupervisor.promote`` fails every shard a standby subscribed
over to that one standby, and the chaos audit picks it by its commit
LSNs summed over shards.  Quorum commit only promises that *some*
``quorum`` standbys mirror each record, not the same ones on every
shard.  So when each standby trails on a different shard, whichever one
is promoted lacks quorum-acked ENDs of the shard it trails on.

The test is a strict xfail: it passes (and must then lose the marker)
once failover picks, or catches up, a standby per shard.
"""

import threading

import pytest

from repro.cluster import ClusterSupervisor
from repro.persist import scan_journal
from repro.persist.records import REC_END
from repro.replicate import source as source_mod
from repro.serve import session_factory_for_script, shard_for
from repro.students import cohort_scripts

N_SHARDS = 2
#: ``(standby, shard)`` links that ship nothing: shard 0 reaches only
#: standby-1 and shard 1 only standby-2
HELD = {("standby-1", 1), ("standby-2", 0)}


@pytest.fixture
def held_links(monkeypatch):
    """Hold the ``HELD`` shipping links open but empty: the standby
    subscribes and hears heartbeats, yet never receives a record."""
    local = threading.local()
    ship = source_mod.ReplicationSource._ship_shard
    read_batch = source_mod._Tailer.read_batch

    def tagged_ship(self, conn, shard, handshake, client="", decoder=None):
        local.held = (client, shard) in HELD
        return ship(self, conn, shard, handshake, client, decoder)

    def gated_read(self, max_records):
        if getattr(local, "held", False):
            return []
        return read_batch(self, max_records)

    monkeypatch.setattr(source_mod.ReplicationSource, "_ship_shard",
                        tagged_ship)
    monkeypatch.setattr(source_mod._Tailer, "read_batch", gated_read)


def _ended(directory):
    """Session ids with an end record in one shard journal."""
    if not directory.is_dir():
        return set()
    return {
        record["sid"]
        for record in scan_journal(directory, truncate=False).records
        if record.get("t") == REC_END
    }


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="promote fails every shard over to one standby, which may "
    "lack quorum-acked records of a shard it trails on",
)
def test_failover_keeps_every_quorum_acked_end(
    tmp_path, classroom_game, held_links
):
    scripts = cohort_scripts(classroom_game, 4, seed=23)
    # two sessions per shard, so each shard has ENDs to lose
    pids = []
    k = 0
    while len(pids) < 2 * N_SHARDS:
        pid = f"p{k}"
        k += 1
        if sum(shard_for(p, N_SHARDS) == shard_for(pid, N_SHARDS)
               for p in pids) < 2:
            pids.append(pid)
    with ClusterSupervisor(
        classroom_game, n_shards=N_SHARDS, n_standbys=2, quorum=1,
        root=tmp_path,
    ) as sup:
        for n, pid in enumerate(pids):
            factory = session_factory_for_script(
                classroom_game, scripts[n % len(scripts)]
            )
            if not sup.submit(pid, factory):
                pytest.fail(f"{pid} was rejected")
        if not sup.manager.drain(timeout=30.0):
            pytest.fail("the primary never drained")
        sup.kill_primary()
        # every END went out on one standby's ack: none timed out
        acked = {
            shard: _ended(sup.persistence.shard_dir(shard))
            for shard in range(N_SHARDS)
        }
        if sum(map(len, acked.values())) != len(pids):
            pytest.fail(f"not every session ended: {acked}")
        # the chaos audit's pick: the most records summed over shards
        promoted = max(sup.standbys, key=lambda nid: sum(
            st.commit_lsn for st in sup.standbys[nid].shard_states()
        ))
        sup.promote(promoted)
        for shard in range(N_SHARDS):
            owner = sup.placement.assignment(shard).primary
            mirrored = _ended(
                sup.standbys[owner].directory / f"shard-{shard:02d}"
            )
            missing = acked[shard] - mirrored
            assert not missing, (
                f"shard {shard} failed over to {owner}, which lacks "
                f"the acked ENDs of {sorted(missing)}"
            )
