"""Seeded chaos soaks: inject faults, kill, recover, prove bit-identity.

Each test runs the full gateway -> serve -> persist stack under one
built-in fault plan via :func:`repro.faultline.chaos.run_chaos` and
holds the run to the durability contract: every scheduled fault fired
exactly its scheduled count, no WAL record was orphaned, and every
recovered (or completed) session's SHA-256 state digest equals an
independent reference replay.
"""

import pytest

from repro import faultline, obs
from repro.faultline.chaos import run_chaos


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faultline.uninstall()
    yield
    faultline.uninstall()


def _assert_contract(report):
    """The invariants every chaos run must close on."""
    assert report.submit_failures == 0, report.to_dict()
    assert report.orphan_records == 0, report.to_dict()
    assert report.all_faults_fired, report.faults
    assert report.digests_checked > 0
    assert report.digest_mismatches == [], report.digest_mismatches
    assert report.bit_identical
    assert report.ok
    # the obs integration saw exactly what the injector fired
    assert report.injected_total == sum(
        row["fired"] for row in report.faults
    )


class TestSeededSoaks:
    def test_fsync_stall_recovery_is_bit_identical(self, live):
        report = run_chaos("fsync-stall", seed=2007, sessions=12)
        _assert_contract(report)
        # both scheduled stalls fired, and only those
        assert report.injected_total == 2

    def test_torn_tail_is_truncated_and_replay_matches(self, live):
        report = run_chaos("torn-tail", seed=2007, sessions=12)
        _assert_contract(report)
        # the injected tear really reached the disk and recovery
        # discarded exactly that tail
        assert report.torn_records >= 1

    def test_disconnect_mid_submit_rides_the_retry_path(self, live):
        report = run_chaos("disconnect-mid-submit", seed=2007, sessions=12)
        _assert_contract(report)
        # the drop killed the connection, yet every offered session
        # still landed (reconnect + resume, duplicate acks tolerated)
        assert report.submitted == 12

    def test_ci_smoke_covers_every_site(self, live):
        report = run_chaos("ci-smoke", seed=2007, sessions=16)
        _assert_contract(report)
        assert {row["site"] for row in report.faults} == {
            "gateway.accept", "gateway.frame", "wal.write",
            "wal.fsync", "serve.tick", "serve.admit",
        }

    def test_same_seed_same_schedule(self, live):
        a = run_chaos("torn-tail", seed=7, sessions=8)
        b = run_chaos("torn-tail", seed=7, sessions=8)
        assert a.faults == b.faults


class TestDurabilityTimeout:
    def test_fsync_timeout_surfaces_via_counter(self, live):
        """A 0.6s fsync stall outlives a 50ms durability budget: the END
        is still delivered (and still bit-identical), but the miss is
        counted instead of silently reported as durable."""
        before = obs.get_registry().get(
            "repro_persist_durability_timeout_total"
        ).total()
        report = run_chaos(
            "fsync-timeout", seed=2007, sessions=8, wait_for=4,
            durable_wait_s=0.05,
        )
        _assert_contract(report)
        assert report.durability_timeouts >= 1
        after = obs.get_registry().get(
            "repro_persist_durability_timeout_total"
        ).total()
        assert after - before == report.durability_timeouts

    def test_patient_wait_sees_no_timeouts(self, live):
        """Same stall, durable-wait budget longer than it: no misses."""
        report = run_chaos(
            "fsync-timeout", seed=2007, sessions=8, wait_for=4,
            durable_wait_s=5.0,
        )
        _assert_contract(report)
        assert report.durability_timeouts == 0
