"""Simulated students: profiles, attention dynamics, knowledge retention.

The paper *claims* students are attracted and learn (§abstract, §2.2) but
reports no study.  E6 substitutes a simulated cohort whose dynamics
follow the standard assumptions of the engagement literature:

* **attention** is a level in [0, 1] that decays exponentially during
  passive exposure (time constant = the student's attention span) and is
  boosted by *novel, responsive* events — feedback popups, rewards, new
  scenes.  Repeated unresponsive interactions ("nothing happens")
  actively erode it.  A student whose attention falls below their
  dropout threshold quits.
* **retention**: an exposed knowledge item is acquired with a probability
  that is higher for *active* deliveries (the student made a decision —
  §3.2's "obtain knowledge from the process of making decision and
  interaction") than for passive ones, and scales with the attention
  level at exposure time.

The constants are documented here in one place and swept by the E6
ablation bench; the paper-shaped conclusion (game > slideshow > linear
video) holds across the swept band because it follows from the structure
(games generate responsive novelty; linear video cannot), not from the
constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ARCHETYPES",
    "AttentionModel",
    "StudentProfile",
    "sample_profile",
]


@dataclass(frozen=True, slots=True)
class StudentProfile:
    """One simulated student's stable traits."""

    player_id: str
    curiosity: float          #: appetite for unexplored options, [0, 1]
    diligence: float          #: tendency to follow instructions, [0, 1]
    attention_span: float     #: passive-decay time constant, seconds
    retention_active: float   #: P(acquire | active exposure, full attention)
    retention_passive: float  #: P(acquire | passive exposure, full attention)
    dropout_threshold: float  #: attention level below which the student quits
    action_seconds: float     #: mean seconds per deliberate action

    def __post_init__(self) -> None:
        for name in ("curiosity", "diligence", "retention_active", "retention_passive"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.attention_span <= 0:
            raise ValueError("attention_span must be positive")
        if not 0.0 <= self.dropout_threshold < 1.0:
            raise ValueError("dropout_threshold must be in [0, 1)")
        if self.action_seconds <= 0:
            raise ValueError("action_seconds must be positive")


#: Archetype parameter ranges (uniform sampling bands).
ARCHETYPES: Dict[str, Dict[str, Tuple[float, float]]] = {
    # Curious self-directed player: explores everything.
    "explorer": {
        "curiosity": (0.7, 0.95),
        "diligence": (0.4, 0.7),
        "attention_span": (240.0, 420.0),
        "retention_active": (0.65, 0.85),
        "retention_passive": (0.25, 0.40),
        "dropout_threshold": (0.08, 0.15),
        "action_seconds": (3.0, 6.0),
    },
    # Goal-driven student: follows the quest efficiently.
    "achiever": {
        "curiosity": (0.3, 0.6),
        "diligence": (0.75, 0.95),
        "attention_span": (300.0, 480.0),
        "retention_active": (0.70, 0.90),
        "retention_passive": (0.30, 0.45),
        "dropout_threshold": (0.05, 0.12),
        "action_seconds": (2.5, 5.0),
    },
    # Easily distracted student: the population the paper worries about.
    "struggler": {
        "curiosity": (0.2, 0.5),
        "diligence": (0.2, 0.5),
        "attention_span": (90.0, 200.0),
        "retention_active": (0.45, 0.65),
        "retention_passive": (0.12, 0.25),
        "dropout_threshold": (0.18, 0.30),
        "action_seconds": (4.0, 8.0),
    },
}

#: Default cohort mix (must sum to 1).
DEFAULT_MIX: Dict[str, float] = {"explorer": 0.3, "achiever": 0.4, "struggler": 0.3}


def sample_profile(
    player_id: str,
    rng: np.random.Generator,
    archetype: Optional[str] = None,
    mix: Optional[Dict[str, float]] = None,
) -> StudentProfile:
    """Draw a student, optionally forcing an archetype."""
    if archetype is None:
        m = mix or DEFAULT_MIX
        names = sorted(m)
        probs = np.asarray([m[n] for n in names], dtype=np.float64)
        probs = probs / probs.sum()
        archetype = str(rng.choice(names, p=probs))
    try:
        bands = ARCHETYPES[archetype]
    except KeyError:
        raise ValueError(
            f"unknown archetype {archetype!r}; known: {sorted(ARCHETYPES)}"
        ) from None
    draw = {k: float(rng.uniform(lo, hi)) for k, (lo, hi) in bands.items()}
    return StudentProfile(player_id=player_id, **draw)


class AttentionModel:
    """Attention level with decay, boosts and erosion.

    Event boost magnitudes (multiplied by the student's curiosity for
    novelty-type events):

    =================  ======  =========================================
    event              boost   meaning
    =================  ======  =========================================
    new_scene           0.18   first entry to an unseen scenario
    feedback            0.10   a popup/dialogue answered an action
    reward              0.22   bonus points / achievement granted
    progress            0.12   quest state advanced (flag/property set)
    page_turn           0.06   slideshow navigation (micro-interaction)
    cut                 0.02   passive shot change in a linear video
    nothing            -0.08   an action produced no response
    repeat             -0.03   re-seeing already-seen feedback
    =================  ======  =========================================
    """

    BOOSTS: Dict[str, float] = {
        "new_scene": 0.18,
        "feedback": 0.10,
        "reward": 0.22,
        "progress": 0.12,
        "page_turn": 0.06,  # self-paced micro-interaction (slideshow)
        "cut": 0.02,        # passive shot change (linear video)
        "nothing": -0.08,
        "repeat": -0.03,
    }
    #: boosts scaled by curiosity (novelty-seeking events)
    CURIOSITY_SCALED = {"new_scene", "feedback", "page_turn"}

    def __init__(self, profile: StudentProfile, initial: float = 0.9) -> None:
        self.profile = profile
        self.level = float(initial)
        #: time-weighted mean attention (integrates level over time)
        self._integral = 0.0
        self._time = 0.0

    def decay(self, dt: float) -> None:
        """Passive exponential decay over ``dt`` seconds."""
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return
        # Integrate the exponential segment exactly.
        tau = self.profile.attention_span
        start = self.level
        self.level = start * math.exp(-dt / tau)
        self._integral += start * tau * (1.0 - math.exp(-dt / tau))
        self._time += dt

    def event(self, kind: str) -> None:
        """Apply one event boost/erosion."""
        try:
            delta = self.BOOSTS[kind]
        except KeyError:
            raise ValueError(f"unknown attention event {kind!r}") from None
        if kind in self.CURIOSITY_SCALED:
            delta *= 0.5 + self.profile.curiosity
        self.level = min(1.0, max(0.0, self.level + delta))

    @property
    def dropped_out(self) -> bool:
        return self.level < self.profile.dropout_threshold

    @property
    def mean_level(self) -> float:
        """Time-weighted mean attention so far (current level if no time
        has passed)."""
        if self._time <= 0:
            return self.level
        return self._integral / self._time
