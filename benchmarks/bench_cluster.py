"""Cluster bench: quorum-commit overhead, kill-a-quorum-member audit.

Two claims this file defends:

* **Overhead:** holding every END back until 2-of-3
  standby acks (``PersistenceConfig.quorum_standbys``) costs less than
  **2x** the p95 submit-to-complete latency of the same workload with
  primary-only durability.  The acks ride the existing shipping link,
  so the marginal cost is one loopback round-trip folded into the
  group-commit window — not a second fsync.
* **Safety:** the seeded ``repl-quorum-partition`` chaos audit — link
  jitter from the fault plan, one quorum member hard-killed mid-burst,
  then the primary killed and the freshest survivor promoted — never
  acks a record that any surviving quorum member lacks, keeps every
  survivor's state digests bit-identical to a from-scratch replay, and
  answers placement-routed reads across the failover without manual
  reconfiguration.

Latency is sampled per session: submit through the placement-routed
gateway, then wait for the session's ``on_done`` callback — which the
shard fires only once the end record is durable, quorum acks included,
so the sample is the client-visible ack time.  Each mode takes
:data:`PROBES` samples, so ``_p95`` reads the 60th of 64 sorted
samples rather than the 11th of 12.

Tunable from the environment so the CI smoke job can run it small:

``REPRO_CLUSTER_BENCH_SESSIONS``
    The chaos cohort size (default ``12``); the latency probes are
    fixed at :data:`PROBES` per mode.
``REPRO_CLUSTER_BENCH_SHARDS``
    Shards per node (default ``2``).
``REPRO_CLUSTER_BENCH_STANDBYS``
    Standby node count (default ``3``; quorum is 2-of-N).
``REPRO_CLUSTER_BENCH_SEED``
    Seed for scripts and the chaos schedule (default ``1407``).
"""

import os
import threading
import time
from pathlib import Path

import pytest

from conftest import save_json, save_result
from repro import obs
from repro.cluster import ClusterSupervisor
from repro.core import fetch_quest_game
from repro.faultline.chaos import run_chaos
from repro.reporting import format_table
from repro.serve import session_factory_for_script
from repro.students import cohort_scripts

SLO_FILE = Path(__file__).parent.parent / "examples" / "slo.toml"

SESSIONS = int(os.environ.get("REPRO_CLUSTER_BENCH_SESSIONS", "12"))
SHARDS = int(os.environ.get("REPRO_CLUSTER_BENCH_SHARDS", "2"))
STANDBYS = int(os.environ.get("REPRO_CLUSTER_BENCH_STANDBYS", "3"))
SEED = int(os.environ.get("REPRO_CLUSTER_BENCH_SEED", "1407"))

QUORUM = 2
OVERHEAD_BOUND = 2.0
#: latency probes per durability mode
PROBES = 64


def _p95(samples):
    ordered = sorted(samples)
    return ordered[int(0.95 * (len(ordered) - 1))] if ordered else 0.0


def _submit_latencies(quorum: int) -> list:
    """Per-session submit -> complete seconds through one cluster."""
    game = fetch_quest_game(n_quests=2, title="cluster bench").build()
    scripts = cohort_scripts(game, PROBES, seed=SEED)
    samples = []
    with ClusterSupervisor(
        game, n_shards=SHARDS, n_standbys=STANDBYS, quorum=quorum,
    ) as supervisor:
        for script in scripts:
            base = session_factory_for_script(game, script)
            settled = threading.Event()

            def factory(player_id, _base=base, _settled=settled):
                session = _base(player_id)
                # on_done fires once the end record is durable (quorum
                # acks included): the client-visible ack
                session.on_done = lambda _s: _settled.set()
                return session

            t0 = time.perf_counter()
            assert supervisor.submit(script.player_id, factory)
            assert settled.wait(timeout=30.0), (
                f"session {script.player_id} never settled "
                f"(quorum={quorum})"
            )
            samples.append(time.perf_counter() - t0)
    return samples


@pytest.fixture(scope="module")
def cluster_runs():
    obs.enable()  # quorum wait histogram / placement counters feed SLOs
    local = _submit_latencies(0)
    quorum = _submit_latencies(QUORUM)
    chaos = run_chaos(
        "repl-quorum-partition", seed=SEED, sessions=SESSIONS, n_shards=SHARDS,
        n_standbys=STANDBYS, quorum=QUORUM,
    )
    return local, quorum, chaos


def test_quorum_commit_overhead_under_two_x(cluster_runs, results_dir):
    local, quorum, _ = cluster_runs
    p95_local, p95_quorum = _p95(local), _p95(quorum)
    ratio = p95_quorum / p95_local if p95_local > 0 else float("inf")
    rows = [
        {
            "mode": name,
            "samples": len(vals),
            "p50_ms": f"{sorted(vals)[len(vals) // 2] * 1e3:.2f}",
            "p95_ms": f"{_p95(vals) * 1e3:.2f}",
            "max_ms": f"{max(vals) * 1e3:.2f}",
        }
        for name, vals in (
            ("local-durable", local),
            (f"quorum {QUORUM}/{STANDBYS}", quorum),
        )
    ]
    save_result(
        "cluster_quorum_latency.txt",
        format_table(
            rows,
            title=(
                f"submit->complete latency ({PROBES} probes x "
                f"{SHARDS} shards, {STANDBYS} standbys)"
            ),
        )
        + f"\np95 overhead: {ratio:.2f}x (bound {OVERHEAD_BOUND}x)",
    )
    assert ratio < OVERHEAD_BOUND, (
        f"quorum commit p95 {p95_quorum * 1e3:.1f}ms is {ratio:.2f}x the "
        f"local-durability p95 {p95_local * 1e3:.1f}ms (bound "
        f"{OVERHEAD_BOUND}x)"
    )


def test_cluster_chaos_audit_passes(cluster_runs):
    """The acceptance bar: kill a quorum member, then the primary —
    no acked write may be missing from any surviving quorum member."""
    _, _, chaos = cluster_runs
    assert chaos.all_faults_fired, "fault schedule never completed"
    assert chaos.lost_records == 0, (
        f"{chaos.lost_records} primary records missing from a survivor"
    )
    assert not chaos.digest_mismatches and chaos.digests_checked > 0, (
        f"{len(chaos.digest_mismatches)} of {chaos.digests_checked} "
        f"survivor digests diverged: {chaos.digest_mismatches[:3]}"
    )
    assert chaos.quorum_timeouts == 0 and chaos.durability_timeouts == 0
    assert chaos.queries_ok == chaos.queries_total > 0, (
        "placement-routed reads failed after the failover"
    )
    assert chaos.post_failover_submit_ok
    assert chaos.ok


def test_cluster_emits_machine_readable_result(cluster_runs, results_dir):
    """BENCH_cluster.json: quorum overhead + chaos audit, for tooling."""
    local, quorum, chaos = cluster_runs
    p95_local, p95_quorum = _p95(local), _p95(quorum)
    payload = {
        "benchmark": "cluster",
        "sessions": SESSIONS,
        "shards": SHARDS,
        "standbys": STANDBYS,
        "quorum": QUORUM,
        "seed": SEED,
        "quorum_overhead": {
            "p95_local_s": p95_local,
            "p95_quorum_s": p95_quorum,
            "ratio": p95_quorum / p95_local if p95_local else None,
            "bound": OVERHEAD_BOUND,
            "samples_per_mode": PROBES,
        },
        "chaos": chaos.to_dict(),
    }
    path = save_json("BENCH_cluster.json", payload)
    assert path.is_file()
    assert payload["quorum_overhead"]["ratio"] is not None
    assert payload["chaos"]["ok"] is True


def test_cluster_slo_rules_pass(cluster_runs):
    """The repro_quorum_*/repro_placement_* rules hold under load."""
    rules = [
        r for r in obs.parse_slo_file(SLO_FILE)
        if (r.metric or r.numerator or "").startswith(
            ("repro_quorum_", "repro_placement_")
        )
    ]
    assert rules, "examples/slo.toml lost its cluster rules"
    results, all_ok = obs.evaluate_slos(rules, obs.snapshot())
    breached = [r.rule.title for r in results if not r.ok]
    assert all_ok, f"cluster SLO rules breached: {breached}"
