"""The one chaos audit core: top-up soak, metrics arming, report, CLI.

:func:`repro.faultline.chaos.run_chaos` serves the single-node, replica
and quorum topologies.  These tests hold the parts they share: a soak
that keeps going until the fault schedule is reachable, timeout
counters that count whatever the caller's obs setting, typed failures,
and one ``repro chaos`` path that keeps every journal under
``--persist-dir``.
"""

import json

import pytest

from repro import faultline, obs
from repro.cli import main
from repro.faultline import chaos
from repro.faultline.chaos import ChaosReport, run_chaos
from repro.faultline.plan import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faultline.uninstall()
    yield
    faultline.uninstall()


@pytest.fixture
def obs_off():
    was = obs.enabled()
    obs.set_enabled(False)
    yield
    obs.set_enabled(was)


def test_soak_tops_up_until_a_deep_fault_fires():
    """Two sessions never reach the 40th fsync; fresh-pid sessions do."""
    plan = FaultPlan(name="deep-fsync", specs=(
        FaultSpec("wal.fsync", "stall", at=40, seconds=0.001),
    ))
    report = run_chaos(plan, sessions=2)
    assert report.all_faults_fired, report.faults
    assert report.ok, report.failures
    assert report.submitted > report.sessions == 2
    # topped-up sessions are audited like the offered ones: each END
    # against a full replay, each one still in flight after recovery
    assert report.digests_checked == (
        report.completed_ends + report.recovered_live
    )


def test_timeouts_count_with_obs_disabled(obs_off):
    report = run_chaos(
        "fsync-timeout", seed=2007, sessions=8, wait_for=4,
        durable_wait_s=0.05,
    )
    assert report.durability_timeouts >= 1
    assert obs.enabled() is False  # the caller's setting is restored


def test_failures_are_typed_per_topology():
    fault = {"site": "wal.fsync", "fired": 0, "times": 1}
    quorum = ChaosReport(
        plan="p", seed=1, topology="quorum", lost_records=3,
        digests_checked=4, caught_up=True, queries_total=2, queries_ok=2,
        post_failover_submit_ok=True, quorum_timeouts=1, faults=[fault],
    )
    assert quorum.breaches() == [
        "lost_records=3", "quorum_timeouts=1", "fault_unfired:wal.fsync#0",
    ]
    # single node never gated on durability timeouts
    single = ChaosReport(plan="p", seed=1, digests_checked=1,
                         durability_timeouts=2, digest_mismatches=["a#c0"])
    assert single.breaches() == ["digest_mismatch:a#c0"]


def test_report_keys_per_topology():
    quorum = ChaosReport(plan="p", seed=1, topology="quorum").to_dict()
    assert {"standby_killed", "survivor_records", "quorum_timeouts",
            "placement_version", "queries_ok", "failures"} <= set(quorum)
    replica = ChaosReport(plan="p", seed=1, topology="replica").to_dict()
    assert {"completed_before_kill", "replica_records",
            "promote_detected"} <= set(replica)
    assert "durability_timeouts" not in replica
    single = ChaosReport(plan="p", seed=1).to_dict()
    assert {"recovered_live", "torn_records", "orphan_records",
            "durability_timeouts"} <= set(single)


@pytest.mark.parametrize("plan,journals", [
    ("ci-smoke", ["shard-00", "shard-01"]),
    ("repl-kill-primary", ["primary/shard-00", "standby-1/shard-00"]),
    ("repl-quorum-partition",
     ["primary/shard-00", "standby-1/shard-00", "standby-3/shard-01"]),
])
def test_cli_runs_every_topology(tmp_path, capsys, plan, journals):
    persist, out = tmp_path / "wal", tmp_path / "report.json"
    assert main([
        "chaos", "--plan", plan, "--seed", "3", "--sessions", "4",
        "--persist-dir", str(persist), "--report", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["ok"] is True and doc["seed"] == 3 and doc["failures"] == []
    for journal in journals:
        assert list((persist / journal).glob("wal-*.log")), journal
    assert "audit: plan=" in capsys.readouterr().out


def test_cli_prints_the_reproduce_line(monkeypatch, capsys):
    failing = ChaosReport(plan="ci-smoke", seed=5, sessions=3,
                          failures=["orphan_records=1"])
    monkeypatch.setattr(chaos, "run_chaos", lambda *a, **k: failing)
    assert main(["chaos", "--seed", "5", "--sessions", "3"]) == 1
    err = capsys.readouterr().err
    assert "orphan_records=1" in err
    assert "python -m repro chaos --plan ci-smoke --seed 5 --sessions 3" in err
