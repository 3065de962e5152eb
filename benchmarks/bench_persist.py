"""Durability bench: group commit vs fsync-per-record, plus recovery.

The headline claim this file defends: under concurrent writers that
each require *equal durability* (a commit returns only once its record
is fsynced), the group-commit journal sustains at least 5x the
committed-records/second of the naive fsync-per-append baseline,
because one fsync covers a whole batch of records across writers.

fsync cost varies wildly across CI hardware — on tmpfs it is nearly
free, which would make the comparison measure scheduler noise instead
of commit protocol efficiency.  The bench therefore injects a fixed
fsync service time through the journal's ``file_factory`` hook (a
device model: ~one disk flush), making the ratio deterministic.  The
actual record IO still hits the real filesystem, and a post-run scan
verifies every committed record is readable back.  The reported commit
p95 is exact: the nearest-rank quantile of every group-commit writer's
append-to-durable latency, with the sample count beside it.

The two modes run as ``REPEATS`` alternating pairs (which mode goes
first flips each pair) and the gate takes the median of the per-pair
throughput ratios.  The modelled fsync fixes the device cost but not
thread wake-ups, which group commit depends on more than the
per-record baseline does, so one pair slowed by other load on the
machine must not decide the result.

Tunable from the environment so the CI smoke job can run it small:

``REPRO_PERSIST_BENCH_WRITERS``
    Concurrent committing writers (default ``16``).
``REPRO_PERSIST_BENCH_COMMITS``
    Durable commits per writer (default ``50``).
``REPRO_PERSIST_BENCH_FSYNC_MS``
    Injected fsync service time in milliseconds (default ``1.0``).
"""

import os
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import pytest

from conftest import save_json, save_result
from repro import obs
from repro.persist import (
    Journal,
    PersistenceConfig,
    recover_shard,
    scan_journal,
)

SLO_FILE = Path(__file__).parent.parent / "examples" / "slo.toml"

WRITERS = int(os.environ.get("REPRO_PERSIST_BENCH_WRITERS", "16"))
COMMITS = int(os.environ.get("REPRO_PERSIST_BENCH_COMMITS", "50"))
FSYNC_MS = float(os.environ.get("REPRO_PERSIST_BENCH_FSYNC_MS", "1.0"))
#: alternating (fsync-per-record, group-commit) pairs
REPEATS = 5


class _ModelledDiskFile:
    """Appendable file whose fsync costs a fixed service time."""

    def __init__(self, path: Path, fsync_delay_s: float) -> None:
        self._fh = open(path, "ab")
        self._delay = fsync_delay_s

    def write(self, data: bytes) -> int:
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def fsync(self) -> None:
        time.sleep(self._delay)
        os.fsync(self._fh.fileno())

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        self._fh.close()


def _run_mode(sync_each: bool) -> dict:
    """Closed-loop committed-records/s at equal durability semantics."""
    root = Path(tempfile.mkdtemp(prefix="repro-bench-wal-"))
    try:
        config = PersistenceConfig(directory=root, sync_each=sync_each)
        journal = Journal(
            root,
            config,
            label="bench-sync" if sync_each else "bench-group",
            file_factory=lambda p: _ModelledDiskFile(p, FSYNC_MS / 1e3),
        )
        errors: list = []
        commit_s: list = []  # group commit: append -> durable, per record

        def writer(w: int) -> None:
            try:
                for i in range(COMMITS):
                    t0 = time.perf_counter()
                    lsn = journal.append(
                        {"t": "input", "sid": f"w{w}",
                         "op": {"k": "key", "key": str(i)}}
                    )
                    if not sync_each:
                        assert journal.wait_durable(lsn, timeout=30.0)
                        commit_s.append(time.perf_counter() - t0)
            except Exception as exc:  # surfaced by the caller
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(WRITERS)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        journal.close()
        assert not errors, f"writer errors: {errors[:3]}"

        report = scan_journal(root)
        # Recovery over the journal we just wrote: the records carry no
        # start frames (pure commit-path load), so nothing is rebuilt —
        # but the scan+fold path runs for real and feeds the
        # repro_persist_recovery_seconds histogram the SLO rules gate.
        recovery = recover_shard(root, game=None)
        return {
            "mode": "fsync-per-record" if sync_each else "group-commit",
            "records": WRITERS * COMMITS,
            "records_on_disk": len(report.records),
            "torn": report.torn_records,
            "elapsed_s": elapsed,
            "records_per_s": WRITERS * COMMITS / elapsed,
            "recovery_s": recovery.duration_s,
            "commit_s": commit_s,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def commit_runs():
    """``(baseline runs, group-commit runs)``, index k from pair k."""
    obs.enable()  # commit/group-size histograms feed the SLO rules
    runs = {True: [], False: []}
    for k in range(REPEATS):
        for sync_each in ((True, False) if k % 2 == 0 else (False, True)):
            runs[sync_each].append(_run_mode(sync_each))
    return runs[True], runs[False]


def _speedups(commit_runs) -> list:
    baselines, grouped = commit_runs
    return [
        g["records_per_s"] / b["records_per_s"]
        for b, g in zip(baselines, grouped)
    ]


def test_group_commit_durability_and_readback(commit_runs, results_dir):
    baselines, grouped = commit_runs
    rows = [
        {
            "pair": k,
            "mode": r["mode"],
            "records": r["records"],
            "elapsed_s": f"{r['elapsed_s']:.3f}",
            "records_per_s": f"{r['records_per_s']:.0f}",
            "recovery_ms": f"{r['recovery_s'] * 1e3:.2f}",
        }
        for k, pair in enumerate(zip(baselines, grouped))
        for r in pair
    ]
    speedups = _speedups(commit_runs)
    from repro.reporting import format_table

    save_result(
        "persist_group_commit.txt",
        format_table(
            rows,
            title=(
                f"WAL commit throughput ({WRITERS} writers x {COMMITS} "
                f"commits, {FSYNC_MS}ms modelled fsync, {REPEATS} pairs)"
            ),
        )
        + f"\nmedian speedup: {statistics.median(speedups):.1f}x "
        f"(pairs: {', '.join(f'{x:.1f}x' for x in speedups)})",
    )
    for r in baselines + grouped:
        # Every committed record must be readable back, in order, clean.
        assert r["records_on_disk"] == r["records"]
        assert r["torn"] == 0


def test_group_commit_beats_per_record_fsync(commit_runs):
    """The acceptance bar: >= 5x throughput at equal durability, as
    the median over the alternating pairs."""
    speedups = _speedups(commit_runs)
    speedup = statistics.median(speedups)
    assert speedup >= 5.0, (
        f"group commit only {speedup:.2f}x (median) over fsync-per-record; "
        f"pairs: {[round(x, 2) for x in speedups]}"
    )


def test_persist_emits_machine_readable_result(commit_runs, results_dir):
    """BENCH_persist.json: throughput + exact commit p95, for tooling."""
    baselines, grouped = commit_runs
    samples = sorted(t for r in grouped for t in r["commit_s"])
    commit_p95 = samples[int(0.95 * (len(samples) - 1))]
    payload = {
        "benchmark": "persist",
        "writers": WRITERS,
        "commits_per_writer": COMMITS,
        "modelled_fsync_ms": FSYNC_MS,
        "repeats": REPEATS,
        "median_speedup": statistics.median(_speedups(commit_runs)),
        "p95_commit_s": commit_p95,
        "commit_samples": len(samples),
        "points": [
            {
                "mode": runs[0]["mode"],
                "throughput_records_per_s": statistics.median(
                    r["records_per_s"] for r in runs
                ),
                "records": runs[0]["records"],
                "recovery_s": statistics.median(r["recovery_s"] for r in runs),
            }
            for runs in (baselines, grouped)
        ],
    }
    path = save_json("BENCH_persist.json", payload)
    assert path.is_file()
    assert len(samples) == REPEATS * WRITERS * COMMITS and commit_p95 > 0
    for point in payload["points"]:
        assert point["throughput_records_per_s"] > 0


def test_persist_slo_rules_pass(commit_runs):
    """The repro_persist_* rules of examples/slo.toml hold under load."""
    rules = [
        r for r in obs.parse_slo_file(SLO_FILE)
        if (r.metric or r.numerator or "").startswith("repro_persist_")
    ]
    assert rules, "examples/slo.toml lost its persist rules"
    results, all_ok = obs.evaluate_slos(rules, obs.snapshot())
    breached = [r.rule.title for r in results if not r.ok]
    assert all_ok, f"persist SLO rules breached: {breached}"
