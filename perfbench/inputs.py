"""Seeded inputs of the serving benchmark.

Everything the server sees is generated here from the workload seed:
the cohort scripts, the open-loop arrival schedule and the crash image
the ``restart`` workload recovers.  The same seed gives byte-identical
inputs (``test_perfbench.py`` checks it); the server process receives
only these inputs, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core import fetch_quest_game
from repro.faultline.chaos import reference_digest
from repro.persist import (
    Journal,
    PersistenceConfig,
    SnapshotStore,
    input_record,
    snapshot_dir_for,
    start_record,
)
from repro.persist.records import ops_to_dicts
from repro.persist.recovery import rebuild_engine
from repro.serve.manager import shard_for
from repro.students.scripts import cohort_scripts

#: the game every workload serves (the gateway CLI's default game)
GAME_QUESTS = 2
GAME_TITLE = "gateway"
#: shards of the benchmark's ServeConfig (the SessionManager default)
N_SHARDS = 2
#: distinct scripts per run; sessions cycle through them, so the
#: reference digests are computed once per script, not per session
SCRIPT_POOL = 256


def build_game():
    """The compiled game the server process also builds."""
    return fetch_quest_game(n_quests=GAME_QUESTS, title=GAME_TITLE).build()


@dataclass(frozen=True)
class Script:
    """One pool entry: the script, its wire form and its oracle."""

    ops: list
    op_dicts: list
    dt: float
    #: reference digest after the whole script (what END must carry)
    full_digest: str


def script_pool(game, seed: int, n: int = SCRIPT_POOL) -> List[Script]:
    """``n`` cohort scripts for ``seed`` with their reference digests."""
    pool = []
    for script in cohort_scripts(game, n, seed=seed):
        pool.append(Script(
            ops=list(script.ops),
            op_dicts=ops_to_dicts(script.ops),
            dt=script.dt,
            full_digest=reference_digest(game, script.ops, script.dt,
                                         len(script.ops)),
        ))
    return pool


def arrival_schedule(seed: int, rate: float, duration_s: float) -> List[float]:
    """Poisson arrival offsets (seconds from the start) at ``rate``/s.

    Conditioned on the count: exactly ``rate * duration_s`` arrivals,
    placed uniformly at random (how a Poisson process's arrivals lie once
    their number is known), so every seed offers the same load.
    """
    rng = random.Random(f"arrivals:{seed}")
    n = round(rate * duration_s)
    return sorted(rng.uniform(0.0, duration_s) for _ in range(n))


def crash_plan(pool: List[Script], n_sessions: int,
               seed: int) -> List[Tuple[str, int, int]]:
    """(player id, pool index, cursor) for each live session of the
    crash image: every session is cut halfway through its script."""
    return [
        (f"r{seed}-{k:05d}", k % len(pool), len(pool[k % len(pool)].ops) // 2)
        for k in range(n_sessions)
    ]


def write_crash_image(root: Path, game, pool: List[Script], seed: int,
                      n_sessions: int, snapshot_every: int) -> Dict[str, int]:
    """Write a crashed server's persistence root through the persist API.

    Per shard: one journal whose start records are followed by the input
    records of every live session, interleaved round-robin the way a
    shard steps them; no end records.  Every ``snapshot_every``-th
    session also has a snapshot covering all its inputs.  Returns exact
    counts of what was written.
    """
    plan = crash_plan(pool, n_sessions, seed)
    by_shard: Dict[int, List[Tuple[int, str, int, int]]] = {}
    for k, (pid, idx, cut) in enumerate(plan):
        by_shard.setdefault(shard_for(pid, N_SHARDS), []).append((k, pid, idx, cut))
    config = PersistenceConfig(directory=root)
    records = snapshots = 0
    for shard, entries in sorted(by_shard.items()):
        directory = config.shard_dir(shard)
        journal = Journal(directory, config, label=str(shard))
        store = SnapshotStore(snapshot_dir_for(directory))
        last_lsn: Dict[str, int] = {}
        try:
            for _k, pid, idx, _cut in entries:
                script = pool[idx]
                last_lsn[pid] = journal.append(
                    start_record(pid, script.dt, script.ops))
            step = 0
            while True:
                wrote = False
                for _k, pid, idx, cut in entries:
                    if step < cut:
                        last_lsn[pid] = journal.append(
                            input_record(pid, pool[idx].ops[step]))
                        wrote = True
                if not wrote:
                    break
                step += 1
            records += journal.last_assigned_lsn
            if not journal.sync(timeout=60.0):
                raise RuntimeError(f"crash image journal {shard} did not sync")
        finally:
            journal.close()
        for k, pid, idx, cut in entries:
            if k % snapshot_every:
                continue
            script = pool[idx]
            engine = rebuild_engine(game, replay=script.op_dicts[:cut],
                                    dt=script.dt)
            store.write(pid, script.dt, script.op_dicts, cut,
                        engine.state.to_dict(), lsn=last_lsn[pid])
            snapshots += 1
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {
        "sessions": len(plan),
        "records": records,
        "snapshots": snapshots,
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
    }
