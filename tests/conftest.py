"""Shared fixtures: small footage, a compiled classroom game, editors."""

from pathlib import Path

import numpy as np
import pytest

from repro.core import GameWizard
from repro.core.templates import scene_footage
from repro.video import FrameSize, ShotSpec, generate_clip

SIZE = FrameSize(80, 60)


def pytest_sessionfinish(session, exitstatus):
    """On a failed run, leave a flight dump for the CI failure artifact."""
    if exitstatus == 0:
        return
    from repro import obs

    recorder = obs.get_flight_recorder()
    if len(recorder) == 0 and not obs.get_tracer().retained():
        return  # nothing observed; an empty dump would only mislead
    path = Path("pytest-flight-dump.json")
    recorder.dump(path, reason=f"pytest-exit-{exitstatus}")
    print(f"\nobs: wrote flight dump to {path}")


@pytest.fixture(scope="session")
def size():
    return SIZE


@pytest.fixture(scope="session")
def flat_clip():
    """A two-shot clip with one hard cut at frame 8, no noise."""
    return generate_clip(
        SIZE,
        [
            ShotSpec(duration=8, top_color=(200, 30, 30), bottom_color=(120, 10, 10)),
            ShotSpec(duration=8, top_color=(30, 30, 200), bottom_color=(10, 10, 120)),
        ],
    )


@pytest.fixture(scope="session")
def noisy_clip():
    """A three-shot clip with sprites and grain (seeded)."""
    rng = np.random.default_rng(5)
    from repro.video import random_shot_script

    return generate_clip(
        SIZE, random_shot_script(3, rng, size=SIZE, min_duration=10, max_duration=14),
        seed=5,
    )


def build_classroom_wizard(size=SIZE) -> GameWizard:
    """The paper's worked example, used across integration tests."""
    return (
        GameWizard("Fix the Computer", author="tests")
        .scene("classroom", "Classroom", scene_footage(size, seed=1, duration=6))
        .scene("market", "Market", scene_footage(size, seed=2, duration=6))
        .helper("classroom", "teacher", "Teacher", at=(5, 10, 10, 20),
                lines=["The computer is broken.", "Find a part at the market!"])
        .prop("classroom", "computer", "Computer", at=(30, 20, 20, 20),
              description="It will not boot.", properties={"state": "broken"})
        .item("market", "ram", "RAM module", at=(40, 40, 8, 8),
              description="A RAM module.")
        .connect("classroom", "market", "To market", "Back to class")
        .fetch_quest(item="ram", target="computer",
                     success_text="The computer boots!",
                     bonus=20, reward_name="Repair badge", win=True)
    )


@pytest.fixture()
def classroom_wizard():
    return build_classroom_wizard()


@pytest.fixture(scope="session")
def classroom_game():
    """A compiled classroom game, shared read-only across tests."""
    return build_classroom_wizard().build()
