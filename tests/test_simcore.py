"""Simulation-core tests: kinematics, weapons, events, determinism."""

import copy
import hashlib
import math

import numpy as np
import pytest

from dogfight.geometry import angle_off, distance
from dogfight.simcore import (
    AC1,
    AC2,
    AircraftState,
    LOSS_EVENTS,
    CannonKill,
    OutOfBounds,
    RocketExpired,
    RocketKill,
    RocketLaunch,
    SimConfig,
    TEAM_AGENT,
    TEAM_OPPONENT,
    World,
    fire_cannon,
    fire_rocket,
    make_spec,
    step_round,
)

KNOTS_TO_KM_PER_S = 0.000514444


def make_aircraft(aid, type_id=AC1, team=TEAM_AGENT, pos=(15.0, 15.0),
                  heading=0.0, speed=None, cannon=200, rockets=None):
    spec = make_spec(type_id)
    if rockets is None:
        rockets = 5 if spec.has_rockets else 0
    return AircraftState(
        id=aid, team=team, spec=spec, x=pos[0], y=pos[1],
        heading=heading, target_heading=heading,
        speed=speed if speed is not None else spec.min_speed,
        cannon_ammo=cannon, rockets=rockets,
    )


def make_world(aircraft, map_size=30.0, seed=0, cfg=None):
    return World(aircraft=aircraft, map_size=map_size,
                 rng=np.random.default_rng(seed),
                 cfg=cfg or SimConfig())


class TestKinematics:
    def test_straight_flight_advance(self):
        a = make_aircraft(0, AC1, speed=900.0)
        world = make_world([a])
        y0 = a.y
        step_round(world)
        advance_km = 900 * KNOTS_TO_KM_PER_S * 0.1
        assert a.y - y0 == pytest.approx(advance_km)  # ~46.3 m
        assert a.y - y0 == pytest.approx(0.0463, abs=1e-4)
        assert a.x == pytest.approx(15.0)

    def test_turn_rate_limit_one_round(self):
        a = make_aircraft(0, AC1)
        a.target_heading = 90.0
        world = make_world([a])
        step_round(world)
        assert a.heading == pytest.approx(0.5)  # 5 deg/s * 0.1 s

    def test_turns_shorter_direction(self):
        a = make_aircraft(0, AC1, heading=10.0)
        a.target_heading = 350.0
        world = make_world([a])
        step_round(world)
        assert a.heading == pytest.approx(9.5)

    def test_setpoint_reached_exactly(self):
        a = make_aircraft(0, AC1, heading=0.0)
        a.target_heading = 0.3
        world = make_world([a])
        step_round(world)
        assert a.heading == pytest.approx(0.3)

    def test_turn_rate_bound_over_random_episode(self):
        rng = np.random.default_rng(3)
        aircraft = [
            make_aircraft(i, AC1 if i % 2 == 0 else AC2,
                          team=TEAM_AGENT if i < 2 else TEAM_OPPONENT,
                          pos=(rng.uniform(5, 25), rng.uniform(5, 25)),
                          heading=rng.uniform(0, 360))
            for i in range(4)
        ]
        world = make_world(aircraft, seed=4)
        for _ in range(300):
            before = {a.id: a.heading for a in world.aircraft if a.alive}
            for a in world.aircraft:
                if world.rng.random() < 0.2:
                    a.target_heading = world.rng.uniform(0, 360)
            step_round(world)
            for a in world.aircraft:
                if a.id in before and a.alive:
                    moved = angle_off(before[a.id], a.heading)
                    assert moved <= a.spec.max_turn_rate * 0.1 + 1e-9

    def test_boundary_coordinate_destroys(self):
        a = make_aircraft(0, AC1, pos=(30.0, 15.0), heading=90.0)
        world = make_world([a])
        events = step_round(world)
        assert events == [OutOfBounds(aircraft=0)]
        assert (events[0].victim, events[0].shooter) == (0, None)
        assert not a.alive


def in_wez(shooter, target) -> bool:
    """Whether one round of `shooter`'s cannon, at a hit probability above 1
    per round, destroys `target`: whether `target` sits in its WEZ."""
    world = make_world([shooter, target], cfg=SimConfig(hit_prob_divisor=0.5))
    return fire_cannon(world, shooter.id) is not None


class TestWez:
    def test_ac1_short_range(self):
        shooter = make_aircraft(0, AC1, pos=(15, 15), heading=0.0)
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 16.5))
        assert in_wez(shooter, target)

    def test_ac1_beyond_range(self):
        shooter = make_aircraft(0, AC1, pos=(15, 15), heading=0.0)
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 18))
        assert not in_wez(shooter, target)

    def test_ac2_long_range(self):
        shooter = make_aircraft(0, AC2, pos=(15, 15), heading=0.0)
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 18))
        assert in_wez(shooter, target)

    def test_cone_angle(self):
        shooter = make_aircraft(0, AC1, pos=(15, 15), heading=0.0)
        inside = make_aircraft(1, AC1, team=TEAM_OPPONENT,
                               pos=(15 + 1.5 * math.sin(math.radians(9)),
                                    15 + 1.5 * math.cos(math.radians(9))))
        outside = make_aircraft(2, AC1, team=TEAM_OPPONENT,
                                pos=(15 + 1.5 * math.sin(math.radians(11)),
                                     15 + 1.5 * math.cos(math.radians(11))))
        assert in_wez(shooter, inside)
        assert not in_wez(shooter, outside)


class TestCannon:
    def test_no_ammo_is_noop(self):
        shooter = make_aircraft(0, AC1, cannon=0)
        shooter.cannon_firing = True
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 16))
        world = make_world([shooter, target])
        assert fire_cannon(world, 0) is None
        assert shooter.cannon_ammo == 0
        assert not shooter.cannon_firing

    def test_ammo_spent_per_shot(self):
        shooter = make_aircraft(0, AC1, cannon=10)
        world = make_world([shooter])
        fire_cannon(world, 0)
        assert shooter.cannon_ammo == 9

    def test_friendly_fire_possible(self):
        shooter = make_aircraft(0, AC1, pos=(15, 15), heading=0.0)
        friendly = make_aircraft(1, AC1, team=TEAM_AGENT, pos=(15, 16))
        world = make_world([shooter, friendly], seed=1)
        kills = 0
        for _ in range(500):
            friendly.alive = True
            shooter.cannon_ammo = 200
            event = fire_cannon(world, 0)
            if event is not None:
                assert isinstance(event, CannonKill)
                assert event.victim == 1
                kills += 1
        assert kills > 0

    def test_hit_rate_matches_p_round(self):
        shooter = make_aircraft(0, AC1, pos=(15, 15), heading=0.0)
        target = make_aircraft(1, AC2, team=TEAM_OPPONENT, pos=(15, 16))
        world = make_world([shooter, target], seed=7)
        n, kills = 20000, 0
        for _ in range(n):
            target.alive = True
            shooter.cannon_ammo = 1
            if fire_cannon(world, 0) is not None:
                kills += 1
        assert kills / n == pytest.approx(0.07, abs=0.005)

    def test_nearest_rolled_first(self):
        shooter = make_aircraft(0, AC2, pos=(15, 15), heading=0.0)
        near = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 16))
        far = make_aircraft(2, AC1, team=TEAM_OPPONENT, pos=(15, 17))
        world = make_world([shooter, near, far], seed=2)
        victims = set()
        for _ in range(2000):
            near.alive = far.alive = True
            shooter.cannon_ammo = 1
            event = fire_cannon(world, 0)
            if event is not None:
                victims.add(event.victim)
        assert 1 in victims and 2 in victims  # one kill per shot, near first


class TestRockets:
    def test_launch_bookkeeping(self):
        shooter = make_aircraft(0, AC1, rockets=5)
        target = make_aircraft(1, AC2, team=TEAM_OPPONENT, pos=(15, 20))
        world = make_world([shooter, target])
        event = fire_rocket(world, 0, 1)
        assert isinstance(event, RocketLaunch)
        assert shooter.rockets == 4
        assert shooter.rocket_cooldown == world.cfg.rocket_cooldown_rounds
        assert len(world.rockets) == 1

    def test_cooldown_blocks(self):
        shooter = make_aircraft(0, AC1, rockets=5)
        shooter.rocket_cooldown = 30
        target = make_aircraft(1, AC2, team=TEAM_OPPONENT, pos=(15, 20))
        world = make_world([shooter, target])
        assert fire_rocket(world, 0, 1) is None
        assert shooter.rockets == 5

    def test_ac2_cannot_launch(self):
        shooter = make_aircraft(0, AC2)
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 20))
        world = make_world([shooter, target])
        assert fire_rocket(world, 0, 1) is None
        assert not world.rockets

    def test_rocket_catches_fleeing_target(self):
        # closing speed 300 kn covers 3 km well inside the expiry window
        shooter = make_aircraft(0, AC1, pos=(15, 5))
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 8),
                               heading=0.0, speed=900.0)
        world = make_world([shooter, target], map_size=400.0)
        fire_rocket(world, 0, 1)
        outcome = None
        for _ in range(world.cfg.rocket_expiry_rounds + 1):
            for e in step_round(world):
                if isinstance(e, (RocketKill, RocketExpired)):
                    outcome = e
            if outcome:
                break
        assert isinstance(outcome, RocketKill)
        assert not target.alive

    def test_rocket_expires_when_out_of_reach(self):
        cfg = SimConfig(rocket_expiry_rounds=50)
        shooter = make_aircraft(0, AC1, pos=(5, 5))
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(300, 300),
                               heading=45.0, speed=900.0)
        world = make_world([shooter, target], map_size=1000.0, cfg=cfg)
        fire_rocket(world, 0, 1)
        outcomes = []
        for _ in range(60):
            outcomes += [e for e in step_round(world)
                         if isinstance(e, (RocketKill, RocketExpired))]
        assert len(outcomes) == 1
        assert isinstance(outcomes[0], RocketExpired)

    def test_rocket_spent_when_target_dies_first(self):
        shooter = make_aircraft(0, AC1, pos=(15, 5))
        target = make_aircraft(1, AC1, team=TEAM_OPPONENT, pos=(15, 20))
        world = make_world([shooter, target])
        fire_rocket(world, 0, 1)
        target.alive = False
        events = step_round(world)
        assert any(isinstance(e, RocketExpired) for e in events)
        assert not world.rockets


class TestEpisodeInvariants:
    def _random_episode(self, seed):
        rng = np.random.default_rng(seed)
        aircraft = []
        for i in range(4):
            team = TEAM_AGENT if i < 2 else TEAM_OPPONENT
            type_id = AC1 if i % 2 == 0 else AC2
            aircraft.append(make_aircraft(
                i, type_id, team=team,
                pos=(rng.uniform(5, 25), rng.uniform(5, 25)),
                heading=rng.uniform(0, 360),
                speed=rng.uniform(100, 500),
                cannon=50))
        world = make_world(aircraft, seed=seed + 1)
        all_events = []
        for _ in range(400):
            for a in world.aircraft:
                if not a.alive:
                    continue
                if world.rng.random() < 0.1:
                    a.target_heading = world.rng.uniform(0, 360)
                a.cannon_firing = world.rng.random() < 0.3
                if a.spec.has_rockets and world.rng.random() < 0.05:
                    foes = [o for o in world.aircraft
                            if o.alive and o.team != a.team]
                    if foes:
                        launch = fire_rocket(world, a.id, foes[0].id)
                        if launch:
                            all_events.append((world.round_idx, launch))
            for e in step_round(world):
                all_events.append((world.round_idx, e))
        return world, all_events

    def test_ammo_conservation(self):
        world, events = self._random_episode(11)
        spent_rockets = {}
        for _, e in events:
            if isinstance(e, RocketLaunch):
                spent_rockets[e.shooter] = spent_rockets.get(e.shooter, 0) + 1
        for a in world.aircraft:
            assert a.rockets + spent_rockets.get(a.id, 0) == a.initial_rockets
            assert 0 <= a.cannon_ammo <= a.initial_cannon

    def test_dead_aircraft_stay_inert(self):
        world, events = self._random_episode(13)
        death_round = {}
        for rnd, e in events:
            if isinstance(e, (CannonKill, RocketKill)):
                death_round[e.victim] = rnd
            elif isinstance(e, OutOfBounds):
                death_round[e.aircraft] = rnd
        for rnd, e in events:
            actor = None
            if isinstance(e, (CannonKill, RocketLaunch)):
                actor = e.shooter
            if actor is not None and actor in death_round:
                assert rnd <= death_round[actor]

    def test_loss_events_name_victim_and_shooter(self):
        world, events = self._random_episode(13)
        losses = [e for _, e in events if isinstance(e, LOSS_EVENTS)]
        # every destroyed aircraft is the victim of exactly one loss event
        assert sorted(e.victim for e in losses) == \
            [a.id for a in world.aircraft if not a.alive]
        for e in losses:
            assert (e.shooter is None) == isinstance(e, OutOfBounds)
            assert e.shooter != e.victim

    def test_fixed_seed_reproducible(self):
        world_a, events_a = self._random_episode(17)
        world_b, events_b = self._random_episode(17)
        assert events_a == events_b
        for a, b in zip(world_a.aircraft, world_b.aircraft):
            assert (a.x, a.y, a.heading, a.speed, a.alive) == (b.x, b.y, b.heading, b.speed, b.alive)

    def test_deepcopy_replay_matches(self):
        world, _ = self._random_episode(19)
        clone = copy.deepcopy(world)
        ev1 = step_round(world)
        ev2 = step_round(clone)
        assert ev1 == ev2


class TestSpecValidation:
    def test_rejects_bad_speed_range(self):
        with pytest.raises(ValueError):
            make_spec(AC1, min_speed=900.0, max_speed=900.0)

    def test_rejects_rockets_on_ac2(self):
        with pytest.raises(ValueError):
            make_aircraft(0, AC2, rockets=3)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_world([make_aircraft(0), make_aircraft(0, AC2, rockets=0)])


class TestTrajectoryDigest:
    """Pins the simulator bit for bit: fixed-seed worlds flown through
    `step_round` with steering, cannon fire and rocket launches, hashed over
    every event and the final aircraft and rocket states. A change to the
    round's arithmetic or event order changes the digest."""

    @staticmethod
    def _fly(digest, scenario, rounds, seed) -> set[str]:
        from dogfight.config import ScenarioConfig
        from dogfight.env import generate_world
        from dogfight.geometry import bearing_to

        world = generate_world(ScenarioConfig(**scenario),
                               np.random.default_rng(seed), SimConfig())
        control = np.random.default_rng(seed + 1000)
        events = []
        for rnd in range(rounds):
            if rnd % 10 == 0:  # one decision per simulated second
                for a in [b for b in world.aircraft if b.alive]:
                    foes = [b for b in world.aircraft
                            if b.alive and b.team != a.team]
                    if not foes:
                        continue
                    foe = min(foes, key=lambda b: (distance(a, b), b.id))
                    gap = distance(a, foe)
                    bearing = bearing_to(a, foe) if gap > 0 else a.heading
                    a.target_heading = (bearing + control.normal(0.0, 5.0)) % 360.0
                    a.speed = control.uniform(a.spec.min_speed, a.spec.max_speed)
                    a.cannon_firing = bool(gap < 6.0 or control.random() < 0.1)
                    if control.random() < 0.05:
                        launch = fire_rocket(world, a.id, foe.id)
                        if launch is not None:
                            events.append(launch)
            events.extend(step_round(world))
        for event in events:
            digest.update(repr(event).encode())
        for a in world.aircraft:
            digest.update(repr((a.id, a.alive, a.x, a.y, a.heading,
                                a.target_heading, a.speed, a.cannon_ammo,
                                a.rockets, a.rocket_cooldown,
                                a.cannon_firing)).encode())
        for r in world.rockets:
            digest.update(repr((r.shooter_id, r.target_id, r.x, r.y,
                                r.speed, r.age)).encode())
        return {type(e).__name__ for e in events}

    @pytest.mark.parametrize("scenario, rounds, seeds, expected", [
        (dict(n_agents=2, n_opponents=2), 1500, range(6),
         "3dc852099dec780ba1814a5f826b4f2ba2adb6856891c6900fb2047822a8e9a4"),
        (dict(n_agents=15, n_opponents=15, map_size=50.0), 800, range(2),
         "9e8e0d5800922f160869970f119029bc628c00572d1161dde265083ef706c8c7"),
    ])
    def test_digest_pinned(self, scenario, rounds, seeds, expected):
        digest = hashlib.sha256()
        kinds = set()
        for seed in seeds:
            kinds |= self._fly(digest, scenario, rounds, seed)
        assert kinds == {"CannonKill", "RocketKill", "RocketLaunch",
                         "RocketExpired", "OutOfBounds"}
        assert digest.hexdigest() == expected
