"""The benchmark's own tests: determinism of inputs and exact counts.

Run from the checkout root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import workloads  # noqa: E402


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes (determinism)."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def inputs_digest(pool: list, schedule: list) -> str:
    """SHA-256 of the scripts and schedule exactly as sent."""
    doc = [[s.op_dicts, s.dt] for s in pool], [round(t, 9) for t in schedule]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def game():
    return inputs.build_game()


def test_scripts_and_schedule_repeat_for_a_seed(game):
    a = inputs.script_pool(game, 5, n=32)
    b = inputs.script_pool(game, 5, n=32)
    other = inputs.script_pool(game, 6, n=32)
    sched = inputs.arrival_schedule(5, 100.0, 3.0)
    assert sched == inputs.arrival_schedule(5, 100.0, 3.0)
    assert inputs_digest(a, sched) == inputs_digest(b, sched)
    assert inputs_digest(a, sched) != inputs_digest(other, sched)
    assert sched != inputs.arrival_schedule(6, 100.0, 3.0)
    assert all(0 < t < 3.0 for t in sched)


def test_crash_image_repeats_byte_for_byte(game, tmp_path):
    pool = inputs.script_pool(game, 3, n=16)
    counts = [
        inputs.write_crash_image(tmp_path / name, game, pool, 3, 120, 4)
        for name in ("a", "b")
    ]
    assert counts[0] == counts[1]
    assert counts[0]["sessions"] == 120 and counts[0]["snapshots"] == 30
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_exact_counts_repeat_for_a_seed(game, tmp_path):
    pool = inputs.script_pool(game, 9)
    runs = [
        workloads.lab(tmp_path / name, 9, 0.0, pool=pool, per_lane=60,
                      with_setup=False)
        for name in ("a", "b")
    ]
    counts = [workloads.exact_counts(r) for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["sessions"] == 120
    assert counts[0]["frames"] > 3 * 120
    assert all(r.failed == 0 and r.attempted == 120 for r in runs)


def test_quantile_is_nearest_rank_over_raw_samples():
    values = list(range(1, 101))
    assert workloads.quantile(values, 0.5) == 50
    assert workloads.quantile(values, 0.95) == 95
    summary = workloads.latency_summary("x", [0.001] * 9, failed=1)
    assert summary["x_n"] == 10
    assert summary["x_p95_ms"] == math.inf


def test_speed_scaling_divides_out_a_slower_cpu():
    ref = workloads.REFERENCE_LOOP_US
    script = SimpleNamespace(full_digest="d")
    sessions = []
    # window 0 at the reference speed, window 1 at half of it (one
    # failed session there): half the rate, twice the latency
    for k, n, latency, slowness in ((0, 10, 0.020, 1.0), (1, 6, 0.040, 2.0)):
        for i in range(n):
            s = workloads.Session(f"p{k}-{i}", script)
            s.ended = k + 0.5
            s.sent = s.ended - latency
            s.digest = "bad" if (k, i) == (1, 5) else "d"
            sessions.append(s)
    speed = [[0.2, ref], [0.7, ref], [1.2, 2 * ref], [1.6, 2 * ref]]
    win = workloads.speed_scaled_windows(sessions, speed, 0.0, 2.0, 1.0)
    assert win["rate"] == [10.0, 5.0]
    assert win["ref_rate"] == [10.0, 10.0]
    assert win["slowness"] == [1.0, 2.0]
    assert win["ref_p50_ms"][0] == pytest.approx(20.0)
    assert win["ref_p50_ms"][1] == pytest.approx(20.0)
    with pytest.raises(RuntimeError):
        workloads.slowness(speed, 5.0, 6.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
