"""Rule-based opponent controllers for the first three curriculum levels.

L1 holds position (minimum-speed flight; the motion model has no hover).
L2 acts uniformly at random with occasional trigger pulls. L3 pursues the
closest agent: it turns the short way toward the target by a randomized
fraction of the antenna train angle, slows down as it closes in, fires more
eagerly the better it is aligned, and occasionally breaks away in a fleeing
dash. All constants live in ScriptConfig.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ScriptConfig
from .env import (
    LowLevelAction,
    SPEED_BINS,
    episode_stream,
    heading_delta_to_bin,
    speed_to_bin,
)
from .geometry import ata, bearing_to, clockwise_sign_to, distance, signed_heading_delta
from .observations import closest_opponents
from .simcore import AircraftState, World


def l1_policy(world: World, opp_id: int) -> LowLevelAction:
    """Static target: no turn, minimum speed, no firing."""
    if not world.get(opp_id).alive:
        raise ValueError(f"aircraft {opp_id} is destroyed")
    return LowLevelAction(h=0, v=0, c=0, r=0)


def l2_policy(world: World, opp_id: int, rng: np.random.Generator,
              script: ScriptConfig) -> LowLevelAction:
    """Random maneuvers and firing."""
    if not world.get(opp_id).alive:
        raise ValueError(f"aircraft {opp_id} is destroyed")
    return LowLevelAction(
        h=int(rng.integers(-6, 7)),
        v=int(rng.integers(0, SPEED_BINS + 1)),
        c=int(rng.random() < script.l2_fire_prob),
        r=int(rng.random() < script.l2_fire_prob),
    )


def _pursuit_speed_bin(aircraft: AircraftState, target_distance: float,
                       cfg: ScriptConfig) -> int:
    """Full speed far out, slowing linearly to a fraction of max up close."""
    span = cfg.full_speed_distance - cfg.close_distance
    frac_along = min(max((target_distance - cfg.close_distance) / span, 0.0), 1.0)
    speed_frac = cfg.min_speed_fraction + (1.0 - cfg.min_speed_fraction) * frac_along
    return speed_to_bin(aircraft.spec, speed_frac * aircraft.spec.max_speed)


def l3_policy(world: World, opp_id: int, rng: np.random.Generator,
              script: ScriptConfig, flee_state: dict[int, int]
              ) -> tuple[LowLevelAction, int | None]:
    """Pursuit controller: returns the action and the pursued target id.
    `flee_state`, opponent id -> remaining flee decisions, is mutated here."""
    opponent = world.get(opp_id)
    if not opponent.alive:
        raise ValueError(f"aircraft {opp_id} is destroyed")
    targets = closest_opponents(world, opponent, 1)
    if not targets:
        return LowLevelAction(h=0, v=0, c=0, r=0), None
    target = targets[0]

    if flee_state.get(opp_id, 0) > 0:
        flee_state[opp_id] -= 1
        return _flee_action(opponent, target), target.id
    if script.flee_probability > 0 and rng.random() < script.flee_probability:
        flee_state[opp_id] = script.flee_duration - 1
        return _flee_action(opponent, target), target.id

    train_angle = ata(opponent, opponent.heading, target)
    sign = clockwise_sign_to(opponent, opponent.heading, target)
    h = heading_delta_to_bin(sign * rng.random() * train_angle)

    gap = distance(opponent, target)
    v = _pursuit_speed_bin(opponent, gap, script)

    if script.fire_ata_scale > 0:
        fire_prob = max(0.0, 1.0 - train_angle / script.fire_ata_scale)
    else:
        fire_prob = 0.0
    c = int(fire_prob > 0 and rng.random() < fire_prob)
    r_fire = int(opponent.spec.has_rockets and fire_prob > 0
                 and rng.random() < fire_prob)
    return LowLevelAction(h=h, v=v, c=c, r=r_fire), target.id


def _flee_action(opponent: AircraftState, target: AircraftState) -> LowLevelAction:
    away = bearing_to(target, opponent)  # direction putting target astern
    delta = signed_heading_delta(opponent.heading, away)
    return LowLevelAction(h=heading_delta_to_bin(delta), v=SPEED_BINS, c=0, r=0)


# the ScriptConfig keys each scripted level's policy reads
SCRIPT_KEYS = {"L1": (), "L2": ("l2_fire_prob",),
               "L3": ("flee_probability", "flee_duration", "fire_ata_scale",
                      "full_speed_distance", "min_speed_fraction",
                      "close_distance")}


@dataclass
class ScriptedController:
    """Opponent controller with per-aircraft flee bookkeeping. `reset`
    starts an episode: no one flees, and a new episode stream spawned from
    `rng` makes the episode's draws. Only `reset` sets the stream."""

    level: str
    rng: np.random.Generator
    script: ScriptConfig
    flee_state: dict[int, int] = field(default_factory=dict, init=False)
    stream: np.random.Generator = field(init=False)

    def __call__(self, world: World, opponent_ids: list[int]
                 ) -> dict[int, LowLevelAction]:
        """Each listed opponent's action, decided one after another in the
        listed order on the episode stream."""
        return {oid: self._decide(world, oid) for oid in opponent_ids}

    def _decide(self, world: World, opponent_id: int) -> LowLevelAction:
        if self.level == "L1":
            return l1_policy(world, opponent_id)
        if self.level == "L2":
            return l2_policy(world, opponent_id, self.stream, self.script)
        if self.level == "L3":
            return l3_policy(world, opponent_id, self.stream, self.script,
                             self.flee_state)[0]
        raise ValueError(f"no scripted behavior for level {self.level!r}")

    def reset(self, world: World):
        self.flee_state = {}
        self.stream = episode_stream(self.rng)
