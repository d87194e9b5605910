"""Combat environment: scenario generation, action decoding, the env-step
loop (several sim rounds per decision), and outcome classification. A step
only simulates; the trainers score its events (`rewards`).

One env step holds each aircraft's decoded setpoints for a fixed number of
simulation rounds (10 by default, i.e. one second). The episode loop
(`train.policies.play_episodes`) asks the env's opponent controller once per
env step for the decision of all living opponents, before any action of the
step is applied, so opponents decide from the same world the agents decided
from. Episodes terminate when a team is wiped out or the horizon is
reached; simultaneous extinction counts as a draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .config import ScenarioConfig
from .geometry import wrap_heading
from .observations import build_obs, closest_opponents, encode_low_action
from .simcore import (
    AC1,
    AC2,
    AircraftState,
    RocketLaunch,
    SimConfig,
    SimEvent,
    TEAM_AGENT,
    TEAM_OPPONENT,
    World,
    fire_rocket,
    make_spec,
    step_round,
)

OUTCOME_ONGOING = "ongoing"
OUTCOME_WIN = "win"
OUTCOME_LOSS = "loss"
OUTCOME_DRAW = "draw"

HEADING_STEP_DEG = 15.0
SPEED_BINS = 8


@dataclass(frozen=True)
class LowLevelAction:
    """One discrete control decision: relative heading bin h in {-6..6},
    speed bin v in {0..8}, cannon trigger c, rocket trigger r."""

    h: int
    v: int
    c: int = 0
    r: int = 0

    def __post_init__(self):
        if not -6 <= self.h <= 6:
            raise ValueError(f"h out of range: {self.h}")
        if not 0 <= self.v <= SPEED_BINS:
            raise ValueError(f"v out of range: {self.v}")
        if self.c not in (0, 1) or self.r not in (0, 1):
            raise ValueError("c and r must be 0 or 1")

    @classmethod
    def from_heads(cls, samples) -> "LowLevelAction":
        """Decode per-head categorical samples (h-index, v, c, r)."""
        return cls(h=int(samples[0]) - 6, v=int(samples[1]),
                   c=int(samples[2]), r=int(samples[3]))


@dataclass
class StepResult:
    outcome: str
    events: list[SimEvent]

    @property
    def terminal(self) -> bool:
        return self.outcome != OUTCOME_ONGOING


class OpponentController(Protocol):
    def reset(self, world: World) -> None:
        """Start an episode; called by `CombatEnv.reset` on the new world:
        every env has a controller, which decides its opponents."""
        ...

    def __call__(self, world: World, opponent_ids: list[int]):
        """The listed opponents' decision, made together from `world`: their
        actions by id, or a `Decision` that the episode loop decides with
        the agents'. Rockets aim at the closest living agent (see
        `apply_action`)."""
        ...


def episode_stream(rng: np.random.Generator) -> np.random.Generator:
    """A generator for one episode, seeded by `rng`'s next draw: every
    stateful decision-maker spawns one when an episode begins."""
    return np.random.default_rng(int(rng.integers(1 << 62)))


def decode_speed(spec, v: int) -> float:
    """Linear speed mapping: bin 0 is the type minimum, bin 8 the maximum."""
    return spec.min_speed + (spec.max_speed - spec.min_speed) * v / SPEED_BINS


def speed_to_bin(spec, speed: float) -> int:
    frac = (speed - spec.min_speed) / (spec.max_speed - spec.min_speed)
    return min(max(round(frac * SPEED_BINS), 0), SPEED_BINS)


def heading_delta_to_bin(delta_deg: float) -> int:
    """Nearest action bin for a desired relative heading change, clamped to
    the +/-90 degree command envelope."""
    clamped = min(max(float(delta_deg), -90.0), 90.0)
    return min(max(round(clamped / HEADING_STEP_DEG), -6), 6)


def apply_action(world: World, agent_id: int, action: LowLevelAction,
                 target_id: int | None = None) -> RocketLaunch | None:
    """Decode an action into simulator setpoints. The rocket trigger aims at
    `target_id` when given, else the closest living opponent; inert triggers
    (no rockets, not ready) are ignored."""
    aircraft = world.get(agent_id)
    if not aircraft.alive:
        raise ValueError(f"cannot act for destroyed aircraft {agent_id}")
    aircraft.target_heading = wrap_heading(aircraft.heading + HEADING_STEP_DEG * action.h)
    aircraft.speed = decode_speed(aircraft.spec, action.v)
    aircraft.cannon_firing = bool(action.c)
    if action.r and aircraft.spec.has_rockets:
        if target_id is None or not world.get(target_id).alive:
            nearest = closest_opponents(world, aircraft, 1)
            target_id = nearest[0].id if nearest else None
        if target_id is not None:
            return fire_rocket(world, agent_id, target_id)
    return None


def _sample_team_types(rng: np.random.Generator, size: int) -> list[str]:
    """Aircraft types for one team: both types present whenever size >= 2,
    a uniform single pick otherwise."""
    if size == 1:
        return [AC1 if rng.random() < 0.5 else AC2]
    types = [AC1, AC2]
    types += [AC1 if rng.random() < 0.5 else AC2 for _ in range(size - 2)]
    perm = rng.permutation(size)
    return [types[i] for i in perm]


def generate_world(scenario: ScenarioConfig, rng: np.random.Generator,
                   sim_cfg: SimConfig,
                   agent_types: list[str] | None = None) -> World:
    """Spawn both teams in randomly-chosen opposite halves of the map with
    random positions, headings, and speeds.

    A fixed agent type list overrides the random per-episode sampling
    (needed when per-agent networks tie an agent id to one airframe)."""
    agents_left = rng.random() < 0.5
    margin = scenario.spawn_margin
    half = scenario.map_size / 2.0

    def spawn(team: str, count: int, left: bool, cannon: int, rockets: int,
              start_id: int) -> list[AircraftState]:
        lo_x, hi_x = (margin, half) if left else (half, scenario.map_size - margin)
        types = ((agent_types if team == TEAM_AGENT else None)
                 or _sample_team_types(rng, count))
        crafts = []
        for i in range(count):
            spec = make_spec(types[i])
            heading = rng.uniform(0.0, 360.0)
            crafts.append(AircraftState(
                id=start_id + i, team=team, spec=spec,
                x=rng.uniform(lo_x, hi_x),
                y=rng.uniform(margin, scenario.map_size - margin),
                heading=heading, target_heading=heading,
                speed=rng.uniform(spec.min_speed, spec.max_speed),
                cannon_ammo=cannon,
                rockets=rockets if spec.has_rockets else 0,
            ))
        return crafts

    aircraft = spawn(TEAM_AGENT, scenario.n_agents, agents_left,
                     scenario.agent_cannon, scenario.agent_rockets, 0)
    aircraft += spawn(TEAM_OPPONENT, scenario.n_opponents, not agents_left,
                      scenario.opponent_cannon, scenario.opponent_rockets,
                      scenario.n_agents)
    return World(aircraft=aircraft, map_size=scenario.map_size, rng=rng,
                 cfg=sim_cfg)


def classify_outcome(world: World, step_count: int, horizon: int) -> str:
    agents_alive = bool(world.alive(TEAM_AGENT))
    opponents_alive = bool(world.alive(TEAM_OPPONENT))
    if not agents_alive and not opponents_alive:
        return OUTCOME_DRAW
    if not opponents_alive:
        return OUTCOME_WIN
    if not agents_alive:
        return OUTCOME_LOSS
    if step_count >= horizon:
        return OUTCOME_DRAW
    return OUTCOME_ONGOING


class CombatEnv:
    """Decision-step environment over the round-level simulator, with the
    run's simulator settings and the opponent controller that decides for
    the other team. It scores nothing: each trainer rewards its options
    (`train.trainer.TrainerCore`)."""

    def __init__(self, scenario: ScenarioConfig,
                 opponent_controller: OpponentController, sim_cfg: SimConfig,
                 agent_types: list[str] | None = None):
        self.scenario = scenario
        self.opponent_controller = opponent_controller
        self.sim_cfg = sim_cfg
        self.agent_types = agent_types
        self.world: World | None = None
        self.step_count = 0
        self.outcome = OUTCOME_ONGOING
        self.attack_targets: dict[int, int | None] = {}
        self.prev_actions: dict[int, list[float]] = {}
        # called (world, events) after each sim round; the step's rocket
        # launches come first among its first round's events
        self.round_listener = None

    # -- lifecycle ----------------------------------------------------------

    def reset(self, seed: int):
        """A new episode, generated from `seed`."""
        self.world = generate_world(self.scenario, np.random.default_rng(seed),
                                    self.sim_cfg, agent_types=self.agent_types)
        self.step_count = 0
        self.outcome = OUTCOME_ONGOING
        self.attack_targets = {}
        self.prev_actions = {}
        self.opponent_controller.reset(self.world)

    def agent_ids(self) -> list[int]:
        return [a.id for a in self.world.alive(TEAM_AGENT)]

    def opponent_ids(self) -> list[int]:
        return [a.id for a in self.world.alive(TEAM_OPPONENT)]

    def observe(self, agent_id: int, kind: str) -> np.ndarray:
        return build_obs(kind, self.world, agent_id, self.scenario,
                         target_id=self.attack_targets.get(agent_id))

    # -- stepping -----------------------------------------------------------

    def set_attack_target(self, agent_id: int, target_id: int | None):
        self.attack_targets[agent_id] = target_id

    def step(self, actions: dict[int, LowLevelAction],
             opponent_actions: dict[int, LowLevelAction]) -> StepResult:
        """Apply one decision per living aircraft, agents' `actions` then
        `opponent_actions`, run the round loop, and classify the outcome.
        An opponent without an action holds its setpoints."""
        if self.world is None:
            raise RuntimeError("call reset() before step()")
        if self.outcome != OUTCOME_ONGOING:
            raise RuntimeError("episode already terminal")
        world = self.world
        events: list[SimEvent] = []

        for aid in sorted(actions):
            if world.get(aid).alive:
                launch = apply_action(world, aid, actions[aid],
                                      self.attack_targets.get(aid))
                if launch is not None:
                    events.append(launch)

        for oid, action in opponent_actions.items():
            launch = apply_action(world, oid, action)
            if launch is not None:
                events.append(launch)

        heard = events[:]  # the launches reach the listener with round one
        for _ in range(self.scenario.rounds_per_step):
            round_events = step_round(world)
            events.extend(round_events)
            if self.round_listener is not None:
                self.round_listener(world, heard + round_events)
            heard = []

        self.step_count += 1
        self.outcome = classify_outcome(world, self.step_count, self.scenario.horizon)
        self.prev_actions = {
            aid: encode_low_action(act)
            for aid, act in {**actions, **opponent_actions}.items()
        }
        return StepResult(outcome=self.outcome, events=events)
