"""Runtime footprint guard: numpy is the only third-party import.

``pyproject.toml`` lists numpy alone as a runtime dependency (graph
libraries are test-only oracles).  The check runs in a fresh interpreter
where importing ``networkx`` fails, as it would on a minimal install:
every ``repro`` module must import, a game must build (which validates
it), and a persisted server must serve a cohort whose every END digest
matches the independent replay.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.modules["networkx"] = None  # any import of it now raises

    import importlib
    import pkgutil
    import tempfile
    from pathlib import Path

    import repro

    modules = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # runs the CLI on import
        importlib.import_module(info.name)
        modules += 1

    from repro.core import fetch_quest_game
    from repro.faultline.chaos import reference_digest
    from repro.persist import PersistenceConfig, state_digest
    from repro.serve import ServeConfig, SessionManager, session_factory_for_script
    from repro.students import cohort_scripts

    game = fetch_quest_game(n_quests=2).build()  # refuses an invalid game
    scripts = cohort_scripts(game, 4, seed=11)
    ends = {}

    def record(session):
        ends[session.player_id] = (
            session.cursor, state_digest(session.engine.state))

    with tempfile.TemporaryDirectory() as root:
        manager = SessionManager(ServeConfig(
            n_shards=2, persistence=PersistenceConfig(directory=Path(root)),
        ))
        manager.start()
        for script in scripts:
            base = session_factory_for_script(game, script)

            def factory(pid, base=base):
                session = base(pid)
                session.on_done = record
                return session

            assert manager.submit(script.player_id, factory)
        assert manager.drain(timeout=60.0)
        manager.shutdown()

    assert set(ends) == {s.player_id for s in scripts}, sorted(ends)
    for script in scripts:
        cursor, digest = ends[script.player_id]
        assert digest == reference_digest(game, script.ops, script.dt, cursor), (
            script.player_id)
    print("modules", modules, "sessions", len(ends))
    """
)


def test_serves_a_game_without_networkx():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    words = result.stdout.split()
    assert words[0] == "modules" and int(words[1]) > 50
    assert words[2:] == ["sessions", "4"]
