"""Reward functions for the fight, escape, commander, and single-policy
baselines, plus the favorable-situation predicate and option termination.

Event-driven terms read the loss events (`simcore.LOSS_EVENTS`) of one env
step; the kill reward uses the geometry snapshot embedded in kill events
(the victim's antenna train angle toward the shooter at the instant of
destruction).
"""

from __future__ import annotations

import math

from .config import ScenarioConfig
from .geometry import ata, distance
from .observations import closest_opponents
from .simcore import (
    LOSS_EVENTS,
    TEAM_AGENT,
    TEAM_OPPONENT,
    CannonKill,
    RocketKill,
    SimEvent,
    World,
)

DESTROYED_PENALTY = -2.0  # R_d
FRIENDLY_KILL_PENALTY = -2.0  # R_fr
BOUNDARY_PENALTY = -5.0  # R_b
FRIENDLY_VICTIM_PENALTY = -2.0  # R_fp (FriPun variant)

COMMANDER_KILL = 1.0
COMMANDER_DESTROYED = -1.0
COMMANDER_BOUNDARY = -2.0
ASSESS_BONUS = 0.1

PROXIMITY_STEP = 0.1  # per-time-step escape shaping magnitude

# the reward variants of each low-level policy kind, each with the scenario
# keys its reward reads; no other command's reward reads any of them
REWARD_VARIANTS = {
    "fight": {"base": (), "fripun": (), "shfrac": ("share_fraction",)},
    "escape": {"base": (), "dist": ("near_distance", "far_distance"),
               "dist_speed": ("near_distance", "far_distance", "slow_speed",
                              "fast_speed")},
    "standard": {"base": ("far_distance",)}}


def reward_kill_term(ata_component: float, c_rem: int, c_max: int) -> float:
    """Kill reward: normalized victim-toward-shooter antenna train angle plus
    the fraction of ammunition already expended."""
    if not 0.0 <= ata_component <= 1.0:
        raise ValueError("ata_component must be normalized to [0, 1]")
    if c_max <= 0:
        return ata_component
    if c_rem > c_max:
        raise ValueError("remaining ammunition exceeds allocation")
    return ata_component + (c_max - c_rem) / c_max


def _kill_reward(world: World, event: CannonKill | RocketKill) -> float:
    shooter = world.get(event.shooter)
    c_max = shooter.initial_cannon + shooter.initial_rockets
    c_rem = event.shooter_cannon_left + event.shooter_rockets_left
    return reward_kill_term(event.victim_ata_deg / 180.0, c_rem, c_max)


def _team(world: World, aircraft_id: int) -> str:
    return world.get(aircraft_id).team


def fight_base_reward(world: World, events: list[SimEvent], agent_id: int,
                      fripun: bool) -> float:
    """Per-step fight reward for one agent from this step's events."""
    team = _team(world, agent_id)
    total = 0.0
    for event in events:
        if not isinstance(event, LOSS_EVENTS):
            continue
        if event.shooter is None:
            if event.victim == agent_id:
                total += BOUNDARY_PENALTY
        elif event.shooter == agent_id:
            if _team(world, event.victim) != team:
                total += _kill_reward(world, event)
            else:
                total += FRIENDLY_KILL_PENALTY
        elif event.victim == agent_id:
            if _team(world, event.shooter) != team:
                total += DESTROYED_PENALTY
            elif fripun:
                total += FRIENDLY_VICTIM_PENALTY
    return total


def reward_fight(world: World, events: list[SimEvent], agent_id: int,
                 variant: str, rho: float) -> float:
    """Fight reward under the base, friendly-punishment, or shared-fraction
    scheme. Shared fraction adds ``rho`` times the teammates' base rewards."""
    if variant in ("base", "fripun"):
        return fight_base_reward(world, events, agent_id,
                                 fripun=variant == "fripun")
    if variant == "shfrac":
        team = _team(world, agent_id)
        own = fight_base_reward(world, events, agent_id, False)
        others = sum(
            fight_base_reward(world, events, a.id, False)
            for a in world.aircraft
            if a.team == team and a.id != agent_id
        )
        return own + rho * others
    raise ValueError(f"unknown fight reward variant {variant!r}")


def escape_base_reward(world: World, events: list[SimEvent], agent_id: int) -> float:
    """Non-positive survival reward: only penalties apply."""
    team = _team(world, agent_id)
    total = 0.0
    for event in events:
        if not isinstance(event, LOSS_EVENTS):
            continue
        if event.shooter is None:
            if event.victim == agent_id:
                total += BOUNDARY_PENALTY
        elif event.victim == agent_id and _team(world, event.shooter) != team:
            total += DESTROYED_PENALTY
        elif event.shooter == agent_id and _team(world, event.victim) == team:
            total += FRIENDLY_KILL_PENALTY
    return total


def reward_escape(world: World, events: list[SimEvent], agent_id: int,
                  variant: str, scenario: ScenarioConfig) -> float:
    """Escape reward: base penalties, optionally plus per-step distance (or
    distance-and-speed) shaping evaluated on the post-step world."""
    total = escape_base_reward(world, events, agent_id)
    if variant == "base":
        return total
    if variant not in ("dist", "dist_speed"):
        raise ValueError(f"unknown escape reward variant {variant!r}")
    agent = world.get(agent_id)
    if not agent.alive:
        return total
    d = min((distance(agent, o) for o in closest_opponents(world, agent, 1)),
            default=math.inf)
    slow = variant == "dist" or agent.speed < scenario.slow_speed
    fast = variant == "dist" or agent.speed > scenario.fast_speed
    if d < scenario.near_distance and slow:
        total -= PROXIMITY_STEP
    elif d > scenario.far_distance and fast:
        total += PROXIMITY_STEP
    return total


def reward_standard(world: World, events: list[SimEvent], agent_id: int,
                    scenario: ScenarioConfig) -> float:
    """Single-policy baseline reward: fight terms plus the distance bonus
    only (no proximity penalty)."""
    total = fight_base_reward(world, events, agent_id, False)
    agent = world.get(agent_id)
    # an agent with no opponent left counts as far from them
    if agent.alive and all(distance(agent, o) > scenario.far_distance
                           for o in closest_opponents(world, agent, 1)):
        total += PROXIMITY_STEP
    return total


def favorable_situation(world: World, a_id: int, b_id: int,
                        scenario: ScenarioConfig) -> bool:
    """True when `a` is close enough to `b` and roughly pointing at it: the
    attack-opportunity predicate."""
    a = world.get(a_id)
    b = world.get(b_id)
    if not (a.alive and b.alive):
        return False
    if distance(a, b) >= scenario.favorable_distance:
        return False
    return ata(a, a.heading, b) < scenario.favorable_ata


def assess_commander_action(world: World, agent_id: int, a_c: int,
                            sensed_opponents: list[int],
                            scenario: ScenarioConfig) -> float:
    """Action-assessment reward for one commander decision, evaluated at
    decision time against the agent's sensed opponent list (nearest first).

    a_c = 0 selects escape; a_c = i selects attack on sensed opponent i.
    """
    agent = world.get(agent_id)
    if a_c > 0:
        idx = a_c - 1
        if idx >= len(sensed_opponents) or not world.get(sensed_opponents[idx]).alive:
            return -ASSESS_BONUS  # selected an inactive opponent index
        if favorable_situation(world, agent_id, sensed_opponents[idx],
                               scenario):
            return ASSESS_BONUS
        return 0.0
    # escape chosen: justified when some nearby opponent points at the agent
    # while the agent already points away
    for opp_id in sensed_opponents:
        if (favorable_situation(world, opp_id, agent_id, scenario)
                and ata(agent, agent.heading, world.get(opp_id))
                > scenario.escape_away_ata):
            return ASSESS_BONUS
    return 0.0


def commander_event_reward(world: World, events: list[SimEvent], agent_id: int) -> float:
    """Combat outcome terms credited to the commander for one env step of an
    option: +1 per opponent killed by the agent, -1 when the agent is shot
    down, -2 when it leaves the map. Friendly-kill punishment is omitted."""
    team = _team(world, agent_id)
    total = 0.0
    for event in events:
        if not isinstance(event, LOSS_EVENTS):
            continue
        if event.victim == agent_id:
            total += (COMMANDER_BOUNDARY if event.shooter is None
                      else COMMANDER_DESTROYED)
        elif event.shooter == agent_id and _team(world, event.victim) != team:
            total += COMMANDER_KILL
    return total


def _near_boundary(a, map_size: float, margin: float) -> bool:
    return min(a.x, a.y, map_size - a.x, map_size - a.y) < margin


def option_terminated(world: World, steps_in_option: int,
                      step_events: list[SimEvent],
                      scenario: ScenarioConfig) -> bool:
    """Commander re-invocation test for the whole team: the option horizon
    elapsed, any aircraft was destroyed this step, any living agent nears
    the map boundary, or any agent/opponent pair reached a favorable
    situation."""
    if steps_in_option >= scenario.option_horizon:
        return True
    if any(isinstance(event, LOSS_EVENTS) for event in step_events):
        return True
    agents = world.alive(TEAM_AGENT)
    if any(_near_boundary(a, world.map_size, scenario.boundary_margin)
           for a in agents):
        return True
    opponents = world.alive(TEAM_OPPONENT)
    for a in agents:
        for o in opponents:
            if (favorable_situation(world, a.id, o.id, scenario)
                    or favorable_situation(world, o.id, a.id, scenario)):
                return True
    return False
