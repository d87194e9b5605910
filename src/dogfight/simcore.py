"""Discrete-event simulation of 2D aircraft, cannons, and homing rockets.

One simulation round advances a fixed slice of time (0.1 s by default).
Within a round: aircraft turn toward their heading setpoint at the airframe
turn-rate limit and advance along the new heading; live rockets chase their
targets; firing aircraft resolve cannon shots; aircraft on or beyond the map
boundary are destroyed. Events are emitted in a deterministic order (rocket
events in launch order, then cannon kills by shooter id, then boundary
deaths by aircraft id) so that replays with the same RNG state are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import angle_off, ata, distance, signed_heading_delta, wrap_heading

KNOTS_TO_KM_PER_S = 0.000514444

TEAM_AGENT = "agent"
TEAM_OPPONENT = "opponent"

AC1 = "AC1"
AC2 = "AC2"


@dataclass(frozen=True)
class AircraftSpec:
    """Static per-type control parameters."""

    type_id: str
    max_turn_rate: float  # deg/s
    min_speed: float  # knots
    max_speed: float  # knots
    wez_angle: float  # deg, half-angle from boresight
    wez_range: float  # km
    hit_prob: float  # per second of continuous fire
    has_rockets: bool

    def __post_init__(self):
        if self.min_speed >= self.max_speed:
            raise ValueError("speed range must satisfy min < max")
        for name in ("max_turn_rate", "min_speed", "wez_angle", "wez_range", "hit_prob"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


_BASE_SPECS = {
    AC1: AircraftSpec(AC1, max_turn_rate=5.0, min_speed=100.0, max_speed=900.0,
                      wez_angle=10.0, wez_range=2.0, hit_prob=0.70, has_rockets=True),
    AC2: AircraftSpec(AC2, max_turn_rate=3.5, min_speed=100.0, max_speed=600.0,
                      wez_angle=7.0, wez_range=4.5, hit_prob=0.85, has_rockets=False),
}


def make_spec(type_id: str, **overrides) -> AircraftSpec:
    """Spec for an aircraft type, optionally with tweaked parameters."""
    return replace(_BASE_SPECS[type_id], **overrides) if overrides else _BASE_SPECS[type_id]


@dataclass
class AircraftState:
    """One aircraft's state; its position is the floats `x` and `y` (km)."""

    id: int
    team: str
    spec: AircraftSpec
    x: float
    y: float
    heading: float  # compass deg [0, 360)
    target_heading: float
    speed: float  # knots, within spec range
    cannon_ammo: int
    rockets: int
    rocket_cooldown: int = 0  # rounds until next rocket is ready
    cannon_firing: bool = False
    alive: bool = True
    initial_cannon: int = 0
    initial_rockets: int = 0

    def __post_init__(self):
        if self.initial_cannon == 0:
            self.initial_cannon = self.cannon_ammo
        if self.initial_rockets == 0:
            self.initial_rockets = self.rockets
        if not self.spec.has_rockets and self.rockets != 0:
            raise ValueError(f"{self.spec.type_id} cannot carry rockets")

    @property
    def rocket_ready(self) -> bool:
        return self.spec.has_rockets and self.rockets > 0 and self.rocket_cooldown == 0


@dataclass
class Rocket:
    """A homing rocket in flight, at `x`, `y` (km) like an aircraft."""

    shooter_id: int
    target_id: int
    x: float
    y: float
    speed: float  # knots
    age: int = 0


@dataclass(frozen=True)
class CannonKill:
    shooter: int
    victim: int
    # snapshot for reward computation at the kill instant
    victim_ata_deg: float
    shooter_cannon_left: int
    shooter_rockets_left: int


@dataclass(frozen=True)
class RocketKill:
    shooter: int
    victim: int
    victim_ata_deg: float
    shooter_cannon_left: int
    shooter_rockets_left: int


@dataclass(frozen=True)
class RocketLaunch:
    shooter: int
    target: int


@dataclass(frozen=True)
class RocketExpired:
    shooter: int


@dataclass(frozen=True)
class OutOfBounds:
    aircraft: int
    shooter = None  # a boundary exit is nobody's fire

    @property
    def victim(self) -> int:
        return self.aircraft


SimEvent = CannonKill | RocketKill | RocketLaunch | RocketExpired | OutOfBounds
# The events that destroy an aircraft. Each names its `victim` and the
# `shooter` whose fire destroyed it, None for a boundary exit.
LOSS_EVENTS = (CannonKill, RocketKill, OutOfBounds)


@dataclass(frozen=True)
class SimConfig:
    round_seconds: float = 0.1
    # Table value is read as per-second-of-fire; one round rolls value/divisor.
    hit_prob_divisor: float = 10.0
    rocket_speed: float = 1200.0  # knots
    rocket_cooldown_rounds: int = 50
    rocket_expiry_rounds: int = 300
    rocket_kill_radius: float = 0.01  # km


@dataclass
class World:
    aircraft: list[AircraftState]
    map_size: float  # km per axis, square [0, map_size]^2
    rng: np.random.Generator
    cfg: SimConfig
    rockets: list[Rocket] = field(default_factory=list)
    round_idx: int = 0

    def __post_init__(self):
        ids = [a.id for a in self.aircraft]
        if len(ids) != len(set(ids)):
            raise ValueError("aircraft ids must be unique")
        self.aircraft.sort(key=lambda a: a.id)
        self._by_id = {a.id: a for a in self.aircraft}

    def get(self, aircraft_id: int) -> AircraftState:
        return self._by_id[aircraft_id]

    def alive(self, team: str) -> list[AircraftState]:
        return [a for a in self.aircraft if a.alive and a.team == team]


def _wez_gap(shooter: AircraftState, target: AircraftState) -> float | None:
    """The distance to `target` if it is in `shooter`'s weapon engagement
    zone, else None: `distance` and `ata` (0 when coincident) on floats."""
    dx, dy = target.x - shooter.x, target.y - shooter.y
    gap = math.hypot(dx, dy)
    inside = gap <= shooter.spec.wez_range and (gap == 0.0 or angle_off(
        shooter.heading, wrap_heading(math.degrees(math.atan2(dx, dy))))
        <= shooter.spec.wez_angle)
    return gap if inside else None


def fire_rocket(world: World, shooter_id: int, target_id: int) -> RocketLaunch | None:
    """Launch a homing rocket if the shooter carries a ready one.

    No-op (returns None) for rocketless types, empty racks, cooldown, dead
    participants, or self-targeting.
    """
    shooter = world.get(shooter_id)
    if not shooter.alive or not shooter.spec.has_rockets:
        return None
    if shooter_id == target_id:
        return None
    target = world.get(target_id)
    if not target.alive or not shooter.rocket_ready:
        return None
    shooter.rockets -= 1
    shooter.rocket_cooldown = world.cfg.rocket_cooldown_rounds
    world.rockets.append(
        Rocket(shooter_id=shooter_id, target_id=target_id,
               x=shooter.x, y=shooter.y, speed=world.cfg.rocket_speed)
    )
    return RocketLaunch(shooter=shooter_id, target=target_id)


def _kill_snapshot(world: World, shooter: AircraftState, victim: AircraftState):
    return dict(
        shooter=shooter.id,
        victim=victim.id,
        victim_ata_deg=ata(victim, victim.heading, shooter),
        shooter_cannon_left=shooter.cannon_ammo,
        shooter_rockets_left=shooter.rockets,
    )


def fire_cannon(world: World, shooter_id: int) -> CannonKill | None:
    """Resolve one round of cannon fire: spend one unit of ammunition and
    roll destruction, nearest in-WEZ aircraft first, at most one kill.

    Friendly aircraft inside the WEZ are legitimate (accidental) targets.
    """
    shooter = world.get(shooter_id)
    if not shooter.alive:
        return None
    if shooter.cannon_ammo <= 0:
        shooter.cannon_firing = False
        return None
    shooter.cannon_ammo -= 1
    p_round = shooter.spec.hit_prob / world.cfg.hit_prob_divisor
    reach = shooter.spec.wez_range
    targets = []
    for a in world.aircraft:
        # an aircraft farther than the WEZ range along x or y is out of it,
        # since the distance is at least each of |dx| and |dy|
        if (a.alive and a.id != shooter_id and abs(a.x - shooter.x) <= reach
                and abs(a.y - shooter.y) <= reach):
            gap = _wez_gap(shooter, a)
            if gap is not None:
                targets.append((gap, a.id))
    for _, target_id in sorted(targets):  # nearest first, ties by id
        if world.rng.random() < p_round:
            target = world.get(target_id)
            target.alive = False
            return CannonKill(**_kill_snapshot(world, shooter, target))
    return None


def _advance_aircraft(world: World) -> None:
    dt = world.cfg.round_seconds
    for a in world.aircraft:
        if not a.alive:
            continue
        if a.rocket_cooldown > 0:
            a.rocket_cooldown -= 1
        if a.heading != a.target_heading:  # else the turn changes nothing
            delta = signed_heading_delta(a.heading, a.target_heading)
            max_step = a.spec.max_turn_rate * dt
            if abs(delta) <= max_step:
                a.heading = a.target_heading
            else:
                a.heading = wrap_heading(a.heading + math.copysign(max_step, delta))
        step_km = a.speed * KNOTS_TO_KM_PER_S * dt
        rad = math.radians(a.heading)
        a.x += math.sin(rad) * step_km
        a.y += math.cos(rad) * step_km


def _advance_rockets(world: World) -> list[SimEvent]:
    events: list[SimEvent] = []
    surviving: list[Rocket] = []
    for rocket in world.rockets:
        target = world.get(rocket.target_id)
        if not target.alive:
            # target already destroyed by another weapon; rocket is spent
            events.append(RocketExpired(shooter=rocket.shooter_id))
            continue
        step_km = rocket.speed * KNOTS_TO_KM_PER_S * world.cfg.round_seconds
        dx, dy = target.x - rocket.x, target.y - rocket.y
        gap = math.hypot(dx, dy)
        if gap <= step_km:
            rocket.x, rocket.y = target.x, target.y
        else:  # a step along the unit line of sight
            rocket.x += dx / gap * step_km
            rocket.y += dy / gap * step_km
        rocket.age += 1
        if distance(rocket, target) <= world.cfg.rocket_kill_radius:
            target.alive = False
            shooter = world.get(rocket.shooter_id)
            events.append(RocketKill(**_kill_snapshot(world, shooter, target)))
        elif rocket.age >= world.cfg.rocket_expiry_rounds:
            events.append(RocketExpired(shooter=rocket.shooter_id))
        else:
            surviving.append(rocket)
    world.rockets = surviving
    return events


def step_round(world: World) -> list[SimEvent]:
    """Advance the simulation by one round and return the emitted events.

    Resolution order inside a round is fixed: movement, rockets, cannons
    (shooter id ascending), boundary checks. An aircraft destroyed earlier
    in the round cannot act later in the same round.
    """
    world.round_idx += 1
    _advance_aircraft(world)
    events = _advance_rockets(world)
    for a in world.aircraft:
        if a.alive and a.cannon_firing:
            event = fire_cannon(world, a.id)
            if event is not None:
                events.append(event)
    for a in world.aircraft:
        if a.alive and not (0.0 < a.x < world.map_size
                            and 0.0 < a.y < world.map_size):
            a.alive = False
            events.append(OutOfBounds(aircraft=a.id))
    return events
