"""Observation vectors for the fight, escape, and commander policies.

Every component is normalized into [0, 1]: positions by map size, distances
by the map diagonal, headings by 360, the other angular metrics by 180,
speed by the aircraft type's maximum, ammunition by the initial allocation.
Slots for absent aircraft (no surviving friendly/opponent) are zero-filled
so network input shapes never change mid-episode.

Block conventions, for an observer P describing another aircraft Q:
  angle_off   unsigned heading difference (symmetric),
  aa_to(Q)    aspect angle from Q's tail to P's position,
  ata_to(Q)   P's antenna train angle toward Q's position.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ScenarioConfig
from .geometry import angle_off, aspect_angle, ata, distance
from .simcore import TEAM_AGENT, TEAM_OPPONENT, AircraftState, World

FIGHT_HEADS = (13, 9, 2, 2)  # h, v, c, r action arities

# layout tag -> vector length
OBS_LAYOUTS = {
    "fight-AC1": 27,
    "fight-AC2": 25,
    "escape-AC1": 28,
    "escape-AC2": 27,
    "commander-n2": 34,
    "commander-n3": 44,
}

_FIGHT_OWN = {"AC1": 12, "AC2": 10}
_FIGHT_OPP = 9
_FIGHT_FRIEND = 6
_ESCAPE_OWN = {"AC1": 6, "AC2": 5}
_ESCAPE_OPP = 8
_COMMANDER_OWN = 4
_COMMANDER_OPP = 10
_COMMANDER_FRIEND = 5


def obs_layout(kind: str, type_id: str, senses: int = 2) -> str:
    if kind == "commander":
        return f"commander-n{senses}"
    return f"{kind}-{type_id}"


def closest_opponents(world: World, aircraft: AircraftState, count: int) -> list[AircraftState]:
    """Alive aircraft on the other team, nearest first (ties by id)."""
    foes = [a for a in world.aircraft if a.alive and a.team != aircraft.team]
    foes.sort(key=lambda a: (distance(aircraft, a), a.id))
    return foes[:count]


def closest_friendlies(world: World, aircraft: AircraftState, count: int) -> list[AircraftState]:
    friends = [a for a in world.aircraft
               if a.alive and a.team == aircraft.team and a.id != aircraft.id]
    friends.sort(key=lambda a: (distance(aircraft, a), a.id))
    return friends[:count]


def _require_alive(aircraft: AircraftState):
    if not aircraft.alive:
        raise ValueError(f"cannot build observation for destroyed aircraft {aircraft.id}")


def _own_base(a: AircraftState, map_size: float) -> list[float]:
    return [a.x / map_size, a.y / map_size,
            a.speed / a.spec.max_speed, a.heading / 360.0]


def _ammo(a: AircraftState) -> float:
    return a.cannon_ammo / a.initial_cannon if a.initial_cannon else 0.0


def _rocket_ammo(a: AircraftState) -> float:
    return a.rockets / a.initial_rockets if a.initial_rockets else 0.0


def _pair(a: AircraftState, b: AircraftState, diag: float) -> dict[str, float]:
    """Normalized relative metrics between two aircraft, both directions."""
    return {
        "off": angle_off(a.heading, b.heading) / 180.0,
        "aa_of_a": aspect_angle(b, a, a.heading) / 180.0,  # from a's tail to b
        "aa_of_b": aspect_angle(a, b, b.heading) / 180.0,  # from b's tail to a
        "ata_a_to_b": ata(a, a.heading, b) / 180.0,
        "ata_b_to_a": ata(b, b.heading, a) / 180.0,
        "dist": distance(a, b) / diag,
    }


def build_obs_fight(world: World, agent_id: int,
                    target_id: int | None = None) -> np.ndarray:
    """Fight-policy observation: own state w.r.t. the engaged opponent,
    the opponent's mirror block, and the closest friendly.

    `target_id` overrides the default closest-opponent engagement (used when
    a commander assigns the target).
    """
    agent = world.get(agent_id)
    _require_alive(agent)
    map_size = world.map_size
    diag = map_size * math.sqrt(2.0)

    if target_id is not None and world.get(target_id).alive:
        opp = world.get(target_id)
    else:
        nearest = closest_opponents(world, agent, 1)
        opp = nearest[0] if nearest else None
    friends = closest_friendlies(world, agent, 1)
    friend = friends[0] if friends else None

    own = _own_base(agent, map_size)
    if opp is not None:
        rel = _pair(agent, opp, diag)
        own += [rel["off"], rel["aa_of_b"], rel["ata_a_to_b"], rel["dist"]]
    else:
        own += [0.0, 0.0, 0.0, 0.0]
    own.append(_ammo(agent))
    if agent.spec.has_rockets:
        own += [_rocket_ammo(agent), 1.0 if agent.rocket_ready else 0.0]
    own.append(1.0 if agent.cannon_firing else 0.0)

    if opp is not None:
        opp_block = _own_base(opp, map_size) + [
            rel["off"], rel["aa_of_a"], rel["ata_b_to_a"], rel["dist"],
            1.0 if opp.cannon_firing else 0.0,
        ]
    else:
        opp_block = [0.0] * _FIGHT_OPP

    vec = own + opp_block + _friend_block(agent, friend, map_size, diag, with_speed=True)
    expected = OBS_LAYOUTS[obs_layout("fight", agent.spec.type_id)]
    assert len(vec) == expected, f"fight obs length {len(vec)} != {expected}"
    return np.asarray(vec, dtype=np.float64)


def _friend_block(agent: AircraftState, friend: AircraftState | None,
                  map_size: float, diag: float, with_speed: bool) -> list[float]:
    width = _FIGHT_FRIEND if with_speed else _COMMANDER_FRIEND
    if friend is None:
        return [0.0] * width
    block = [friend.x / map_size, friend.y / map_size]
    if with_speed:
        block.append(friend.speed / friend.spec.max_speed)
    block += [
        ata(friend, friend.heading, agent) / 180.0,  # friend toward agent
        ata(agent, agent.heading, friend) / 180.0,  # agent toward friend
        distance(agent, friend) / diag,
    ]
    return block


def build_obs_escape(world: World, agent_id: int) -> np.ndarray:
    """Escape-policy observation: own state, two closest opponents, closest
    friendly."""
    agent = world.get(agent_id)
    _require_alive(agent)
    map_size = world.map_size
    diag = map_size * math.sqrt(2.0)

    own = _own_base(agent, map_size) + [_ammo(agent)]
    if agent.spec.has_rockets:
        own.append(_rocket_ammo(agent))

    opponents = closest_opponents(world, agent, 2)
    opp_blocks: list[float] = []
    for slot in range(2):
        if slot < len(opponents):
            opp = opponents[slot]
            rel = _pair(agent, opp, diag)
            opp_blocks += _own_base(opp, map_size) + [
                rel["off"], rel["ata_b_to_a"], rel["ata_a_to_b"], rel["dist"],
            ]
        else:
            opp_blocks += [0.0] * _ESCAPE_OPP

    friends = closest_friendlies(world, agent, 1)
    friend = friends[0] if friends else None
    vec = own + opp_blocks + _friend_block(agent, friend, map_size, diag, with_speed=True)
    expected = OBS_LAYOUTS[obs_layout("escape", agent.spec.type_id)]
    assert len(vec) == expected, f"escape obs length {len(vec)} != {expected}"
    return np.asarray(vec, dtype=np.float64)


def build_obs_commander(world: World, agent_id: int, senses: int) -> np.ndarray:
    """Commander observation for one calling agent: compact own block, the
    `senses` sensed opponents (two, or three in the wide-sensing variant),
    and two closest friendlies."""
    agent = world.get(agent_id)
    _require_alive(agent)
    map_size = world.map_size
    diag = map_size * math.sqrt(2.0)

    vec = _own_base(agent, map_size)
    opponents = closest_opponents(world, agent, senses)
    for slot in range(senses):
        if slot < len(opponents):
            opp = opponents[slot]
            rel = _pair(agent, opp, diag)
            vec += _own_base(opp, map_size) + [
                rel["off"], rel["aa_of_a"], rel["aa_of_b"],
                rel["ata_b_to_a"], rel["ata_a_to_b"], rel["dist"],
            ]
        else:
            vec += [0.0] * _COMMANDER_OPP

    friends = closest_friendlies(world, agent, 2)
    for slot in range(2):
        friend = friends[slot] if slot < len(friends) else None
        vec += _friend_block(agent, friend, map_size, diag, with_speed=False)

    expected = OBS_LAYOUTS[obs_layout("commander", agent.spec.type_id, senses)]
    assert len(vec) == expected, f"commander obs length {len(vec)} != {expected}"
    return np.asarray(vec, dtype=np.float64)


def build_obs(kind: str, world: World, agent_id: int, scenario: ScenarioConfig,
              target_id: int | None = None) -> np.ndarray:
    if kind == "fight":
        return build_obs_fight(world, agent_id, target_id)
    if kind == "escape":
        return build_obs_escape(world, agent_id)
    if kind == "commander":
        return build_obs_commander(world, agent_id, scenario.commander_senses)
    raise ValueError(f"unknown observation kind {kind!r}")


# --- entity block boundaries, used by the attention tokenizer ---

def fight_token_splits(type_id: str) -> tuple[int, ...]:
    """Widths of the (own, opponent, friendly) blocks of a fight vector."""
    return (_FIGHT_OWN[type_id], _FIGHT_OPP, _FIGHT_FRIEND)


def commander_block_widths(senses: int = 2) -> tuple[int, ...]:
    return (_COMMANDER_OWN,) + (_COMMANDER_OPP,) * senses + (_COMMANDER_FRIEND,) * 2


# --- centralized critic input -----------------------------------------------

LOW_ACTION_WIDTH = 4  # h, v, c, r normalized
COMMANDER_ACTION_WIDTH = 1


def critic_slot_width(kind: str, senses: int = 2) -> int:
    if kind == "commander":
        return OBS_LAYOUTS[f"commander-n{senses}"] + COMMANDER_ACTION_WIDTH
    key = "fight-AC1" if kind == "fight" else "escape-AC1"
    return OBS_LAYOUTS[key] + LOW_ACTION_WIDTH


def critic_input_width(kind: str, n_agents: int, n_opponents: int, senses: int = 2) -> int:
    return critic_slot_width(kind, senses) * (n_agents + n_opponents)


def encode_low_action(action) -> list[float]:
    """Normalize a low-level action into [0,1]^4 for the critic input."""
    return [(action.h + 6) / 12.0, action.v / 8.0, float(action.c), float(action.r)]


def build_critic_input(kind: str, world: World, scenario: ScenarioConfig,
                       prev_actions: dict[int, list[float]],
                       observations: dict[int, np.ndarray]) -> np.ndarray:
    """Global critic input: per-aircraft observation plus the previous
    decision's action encoding, agents first then opponents, both ordered by
    id and zero-padded to the scenario's team sizes. `observations` holds
    observations the caller has already built, by aircraft id, each equal to
    this slot kind's `build_obs` without a target; the others are built."""
    slot_w = critic_slot_width(kind, scenario.commander_senses)
    slots = []
    for team, count in ((TEAM_AGENT, scenario.n_agents),
                        (TEAM_OPPONENT, scenario.n_opponents)):
        members = [a for a in world.aircraft if a.team == team]  # by id
        for i in range(count):
            block = np.zeros(slot_w, dtype=np.float64)
            if i < len(members) and members[i].alive:
                a = members[i]
                obs = observations.get(a.id)
                if obs is None:
                    obs = build_obs(kind, world, a.id, scenario)
                block[: len(obs)] = obs
                act = prev_actions.get(a.id)
                if act is not None:
                    block[slot_w - len(act):] = act
            slots.append(block)
    return np.concatenate(slots)
