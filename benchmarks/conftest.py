"""Shared benchmark fixtures: result artifact directory, standard game.

When observability is on (``REPRO_OBS=1``), the session-finish hook
writes the accumulated metrics snapshot to
``results/obs_snapshot.prom`` — the CI bench job uploads it as a build
artifact, so every CI run leaves an inspectable record of what the
benchmarks actually exercised.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_sessionfinish(session, exitstatus):
    from repro import obs

    if exitstatus != 0:
        # Leave the black box behind for the CI failure artifact.
        recorder = obs.get_flight_recorder()
        if len(recorder) or obs.get_tracer().retained():
            path = Path("pytest-flight-dump.json")
            recorder.dump(path, reason=f"pytest-exit-{exitstatus}")
            print(f"\nobs: wrote flight dump to {path}")
    if not obs.enabled():
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "obs_snapshot.prom"
    path.write_text(obs.render_prometheus(obs.snapshot()))
    print(f"\nobs: wrote metrics snapshot to {path}")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches drop the tables/figures they regenerate."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def save_result(name: str, content: str) -> Path:
    """Write one regenerated table/figure and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(content + "\n")
    print(f"\n=== {name} ===\n{content}")
    return path


def save_json(name: str, payload: dict) -> Path:
    """Write one machine-readable benchmark result (``BENCH_*.json``).

    The CI bench-smoke job uploads these alongside the obs snapshot so
    run-over-run throughput/latency history is diffable by tooling, not
    just readable by humans.
    """
    import json

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return path
