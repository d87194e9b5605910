"""Hand-evaluated reward cases for every reward function and variant."""

import pytest
from helpers import make_aircraft, make_world

from dogfight.config import ScenarioConfig
from dogfight.rewards import (
    assess_commander_action,
    commander_event_reward,
    escape_base_reward,
    favorable_situation,
    fight_base_reward,
    option_terminated,
    reward_escape,
    reward_fight,
    reward_kill_term,
    reward_standard,
)
from dogfight.simcore import CannonKill, OutOfBounds, RocketKill, TEAM_AGENT, TEAM_OPPONENT


def kill(shooter, victim, ata_deg=180.0, cannon_left=200, rockets_left=5):
    return CannonKill(shooter=shooter, victim=victim, victim_ata_deg=ata_deg,
                      shooter_cannon_left=cannon_left, shooter_rockets_left=rockets_left)


def standard_world():
    return make_world([
        make_aircraft(0, "AC1", TEAM_AGENT, pos=(10, 10)),
        make_aircraft(1, "AC2", TEAM_AGENT, pos=(12, 10)),
        make_aircraft(2, "AC1", TEAM_OPPONENT, pos=(20, 20)),
        make_aircraft(3, "AC2", TEAM_OPPONENT, pos=(22, 20)),
    ])


class TestKillTerm:
    def test_full_ammo_tail_shot(self):
        assert reward_kill_term(1.0, 205, 205) == pytest.approx(1.0)

    def test_all_ammo_spent(self):
        assert reward_kill_term(1.0, 0, 205) == pytest.approx(2.0)

    def test_head_on_full_ammo(self):
        assert reward_kill_term(0.0, 205, 205) == pytest.approx(0.0)

    def test_zero_allocation_drops_ammo_term(self):
        assert reward_kill_term(0.5, 0, 0) == pytest.approx(0.5)


class TestFightReward:
    def test_lone_boundary_exit(self):
        world = standard_world()
        assert reward_fight(world, [OutOfBounds(aircraft=0)], 0, "base", 0.5) == -5.0

    def test_two_kills_then_boundary_net_negative(self):
        world = standard_world()
        events = [kill(0, 2), kill(0, 3), OutOfBounds(aircraft=0)]
        assert reward_fight(world, events, 0, "base", 0.5) == pytest.approx(2.0 - 5.0)

    def test_destroyed_by_opponent(self):
        world = standard_world()
        assert reward_fight(world, [kill(2, 0)], 0, "base", 0.5) == -2.0

    def test_friendly_kill_punishes_shooter_only_in_base(self):
        world = standard_world()
        events = [kill(0, 1)]
        assert reward_fight(world, events, 0, "base", 0.5) == -2.0
        assert reward_fight(world, events, 1, "base", 0.5) == 0.0

    def test_fripun_also_punishes_victim(self):
        world = standard_world()
        events = [kill(0, 1)]
        assert reward_fight(world, events, 1, "fripun", 0.5) == -2.0
        assert reward_fight(world, events, 0, "fripun", 0.5) == -2.0

    def test_shfrac_combination(self):
        # own base 1.0 (tail kill at full ammo), teammate base 2.0
        world = standard_world()
        events = [kill(0, 2, ata_deg=180.0),
                  kill(1, 3, ata_deg=180.0, cannon_left=0, rockets_left=0)]
        assert fight_base_reward(world, events, 0, False) == pytest.approx(1.0)
        assert fight_base_reward(world, events, 1, False) == pytest.approx(2.0)
        assert reward_fight(world, events, 0, "shfrac", 0.5) == pytest.approx(2.0)

    def test_kill_reward_uses_event_snapshot(self):
        world = standard_world()
        # half the ammo spent at the kill instant: 1.0 + 0.5
        events = [kill(0, 2, ata_deg=180.0, cannon_left=100, rockets_left=None or 2)]
        # c_max = 205, c_rem = 102
        assert reward_fight(world, events, 0, "base", 0.5) == pytest.approx(
            1.0 + 103 / 205)


class TestEscapeReward:
    def test_quiet_step_is_zero(self):
        world = standard_world()
        assert reward_escape(world, [], 0, "base", ScenarioConfig()) == 0.0

    def test_base_never_positive(self):
        world = standard_world()
        events = [kill(0, 2)]  # escape agents are not rewarded for kills
        assert reward_escape(world, events, 0, "base", ScenarioConfig()) == 0.0

    def test_dist_penalty_when_close(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = world.get(0).x + 5, world.get(0).y
        assert reward_escape(world, [], 0, "dist",
                             ScenarioConfig()) == pytest.approx(-0.1)

    def test_dist_bonus_when_far(self):
        world = standard_world()
        # opponents ~14+ km away
        world.get(2).x, world.get(2).y = 24.5, 17
        world.get(3).x, world.get(3).y = 25, 20
        assert reward_escape(world, [], 0, "dist", ScenarioConfig()) == pytest.approx(0.1)

    def test_dist_speed_needs_both_conditions(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = 24.5, 17
        world.get(3).x, world.get(3).y = 25, 20
        world.get(0).speed = 650.0
        assert reward_escape(world, [], 0, "dist_speed",
                             ScenarioConfig()) == pytest.approx(0.1)
        world.get(0).speed = 500.0
        assert reward_escape(world, [], 0, "dist_speed", ScenarioConfig()) == 0.0

    def test_non_positive_over_events(self):
        world = standard_world()
        events = [kill(2, 0), OutOfBounds(aircraft=0)]
        assert escape_base_reward(world, events, 0) == -7.0


class TestStandardReward:
    def test_distance_bonus(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = 24.5, 17
        world.get(3).x, world.get(3).y = 25, 20
        assert reward_standard(world, [], 0, ScenarioConfig()) == pytest.approx(0.1)

    def test_no_proximity_penalty(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = world.get(0).x + 5, world.get(0).y
        assert reward_standard(world, [], 0, ScenarioConfig()) == 0.0

    def test_kill_term(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = 14, 14  # inside 13 km
        assert reward_standard(world, [kill(0, 2)], 0,
                               ScenarioConfig()) == pytest.approx(1.0)


class TestFavorableSituation:
    def _world(self, gap_km, ata_deg):
        import math
        # agent at origin-ish heading north; opponent placed so the agent's
        # ATA equals ata_deg exactly
        dx = gap_km * math.sin(math.radians(ata_deg))
        dy = gap_km * math.cos(math.radians(ata_deg))
        return make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15), heading=0.0),
            make_aircraft(1, "AC2", TEAM_OPPONENT, pos=(15 + dx, 15 + dy)),
        ])

    def test_close_and_aligned(self):
        assert favorable_situation(self._world(4.0, 10.0), 0, 1, ScenarioConfig())

    def test_misaligned(self):
        assert not favorable_situation(self._world(4.0, 20.0), 0, 1, ScenarioConfig())

    def test_too_far(self):
        assert not favorable_situation(self._world(6.0, 0.0), 0, 1, ScenarioConfig())


class TestCommanderReward:
    def _favorable_world(self):
        return make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15), heading=0.0),
            make_aircraft(1, "AC2", TEAM_AGENT, pos=(10, 10)),
            make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(15, 19), heading=0.0),
            make_aircraft(3, "AC1", TEAM_OPPONENT, pos=(25, 25)),
        ])

    def test_attack_match_bonus(self):
        world = self._favorable_world()
        assert assess_commander_action(world, 0, 1, [2, 3],
                                       ScenarioConfig()) == pytest.approx(0.1)

    def test_selecting_dead_opponent(self):
        world = self._favorable_world()
        world.get(3).alive = False
        assert assess_commander_action(world, 0, 2, [2, 3],
                                       ScenarioConfig()) == pytest.approx(-0.1)

    def test_default_case_zero(self):
        world = self._favorable_world()
        assert assess_commander_action(world, 0, 2, [2, 3], ScenarioConfig()) == 0.0

    def test_justified_escape(self):
        # opponent 4 km behind the agent, pointing at it; agent points away
        world = make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15), heading=0.0),
            make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(15, 11), heading=0.0),
        ])
        assert assess_commander_action(world, 0, 0, [2],
                                       ScenarioConfig()) == pytest.approx(0.1)

    def test_unjustified_escape(self):
        world = self._favorable_world()
        assert assess_commander_action(world, 0, 0, [2, 3], ScenarioConfig()) == 0.0

    def test_event_terms(self):
        world = self._favorable_world()
        events = [kill(0, 2), kill(3, 1), OutOfBounds(aircraft=0)]
        assert commander_event_reward(world, events, 0) == pytest.approx(1.0 - 2.0)
        assert commander_event_reward(world, events, 1) == pytest.approx(-1.0)

    def test_friendly_kill_term_omitted(self):
        world = self._favorable_world()
        assert commander_event_reward(world, [kill(0, 1)], 0) == 0.0


class TestOptionTermination:
    def _calm_world(self):
        return make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15)),
            make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(15, 24), heading=180.0),
        ])

    def test_horizon(self):
        world = self._calm_world()
        assert option_terminated(world, 10, [], ScenarioConfig())
        assert not option_terminated(world, 3, [], ScenarioConfig())

    def test_destruction_event(self):
        world = self._calm_world()
        assert option_terminated(world, 3, [kill(0, 2)], ScenarioConfig())

    def test_boundary_exit_event(self):
        world = self._calm_world()
        assert not option_terminated(world, 3, [], ScenarioConfig())
        assert option_terminated(world, 3, [OutOfBounds(aircraft=2)], ScenarioConfig())

    def test_boundary_proximity(self):
        world = self._calm_world()
        world.get(0).x, world.get(0).y = 4.0, 15.0
        assert option_terminated(world, 3, [], ScenarioConfig())

    def test_favorable_pair_triggers(self):
        world = self._calm_world()
        world.get(2).x, world.get(2).y = 15.0, 19.0
        world.get(2).heading = 180.0
        # agent heading north at opponent 4 km ahead -> favorable for agent
        assert option_terminated(world, 3, [], ScenarioConfig())

    def test_any_agent_near_the_boundary_ends_the_team_option(self):
        world = make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15)),
            make_aircraft(1, "AC2", TEAM_AGENT, pos=(15, 12)),
            make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(15, 24), heading=180.0),
        ])
        assert not option_terminated(world, 3, [], ScenarioConfig())
        world.get(1).x, world.get(1).y = 26.0, 12.0
        assert option_terminated(world, 3, [], ScenarioConfig())
        world.get(1).alive = False  # a destroyed agent's position is ignored
        assert not option_terminated(world, 3, [], ScenarioConfig())


def test_option_horizon_configurable():
    scenario = ScenarioConfig(option_horizon=4)
    world = make_world([
        make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15)),
        make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(15, 24), heading=180.0),
    ])
    assert option_terminated(world, 4, [], scenario)
    assert not option_terminated(world, 3, [], scenario)


class TestScoringReadsItsScenario:
    """Each scoring function reads the thresholds of the scenario it is
    given: one non-default threshold moves its result across."""

    def test_favorable_situation_distance_and_ata(self):
        far = TestFavorableSituation()._world(6.0, 0.0)
        assert not favorable_situation(far, 0, 1, ScenarioConfig())
        assert favorable_situation(far, 0, 1, ScenarioConfig(favorable_distance=7.0))
        wide = TestFavorableSituation()._world(4.0, 20.0)
        assert not favorable_situation(wide, 0, 1, ScenarioConfig())
        assert favorable_situation(wide, 0, 1, ScenarioConfig(favorable_ata=25.0))

    def test_option_terminated_boundary_margin_and_favorable_distance(self):
        # the agent is 15 km from every edge, the opponent 9 km dead ahead
        world = TestOptionTermination()._calm_world()
        assert not option_terminated(world, 3, [], ScenarioConfig())
        assert option_terminated(world, 3, [], ScenarioConfig(boundary_margin=16.0))
        assert option_terminated(world, 3, [],
                                 ScenarioConfig(favorable_distance=10.0))

    def test_assess_attack_reads_the_favorable_distance(self):
        # opponent 2 is 4 km dead ahead of the agent
        world = TestCommanderReward()._favorable_world()
        assert assess_commander_action(world, 0, 1, [2, 3],
                                       ScenarioConfig()) == pytest.approx(0.1)
        assert assess_commander_action(
            world, 0, 1, [2, 3], ScenarioConfig(favorable_distance=3.5)) == 0.0

    def test_assess_escape_reads_the_escape_away_ata(self):
        # opponent 4 km behind, pointing at the agent; the agent's ATA
        # toward it is 150 degrees
        world = make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 15), heading=30.0),
            make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(15, 11), heading=0.0),
        ])
        assert assess_commander_action(world, 0, 0, [2],
                                       ScenarioConfig()) == pytest.approx(0.1)
        assert assess_commander_action(
            world, 0, 0, [2], ScenarioConfig(escape_away_ata=160.0)) == 0.0

    def test_escape_dist_reads_near_and_far_distance(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = world.get(0).x + 5, world.get(0).y
        assert reward_escape(world, [], 0, "dist",
                             ScenarioConfig()) == pytest.approx(-0.1)
        assert reward_escape(world, [], 0, "dist",
                             ScenarioConfig(near_distance=4.0)) == 0.0
        # the closest opponent ~16 km away
        world.get(2).x, world.get(2).y = 24.5, 17
        world.get(3).x, world.get(3).y = 25, 20
        assert reward_escape(world, [], 0, "dist",
                             ScenarioConfig()) == pytest.approx(0.1)
        assert reward_escape(world, [], 0, "dist",
                             ScenarioConfig(far_distance=20.0)) == 0.0

    def test_escape_dist_speed_reads_fast_and_slow_speed(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = 24.5, 17
        world.get(3).x, world.get(3).y = 25, 20
        world.get(0).speed = 650.0
        assert reward_escape(world, [], 0, "dist_speed",
                             ScenarioConfig()) == pytest.approx(0.1)
        assert reward_escape(world, [], 0, "dist_speed",
                             ScenarioConfig(fast_speed=700.0)) == 0.0
        world.get(2).x, world.get(2).y = world.get(0).x + 5, world.get(0).y
        world.get(0).speed = 350.0
        assert reward_escape(world, [], 0, "dist_speed", ScenarioConfig()) == 0.0
        assert reward_escape(world, [], 0, "dist_speed", ScenarioConfig(
            slow_speed=400.0)) == pytest.approx(-0.1)

    def test_standard_reads_far_distance(self):
        world = standard_world()
        world.get(2).x, world.get(2).y = 24.5, 17
        world.get(3).x, world.get(3).y = 25, 20
        assert reward_standard(world, [], 0, ScenarioConfig()) == pytest.approx(0.1)
        assert reward_standard(world, [], 0,
                               ScenarioConfig(far_distance=20.0)) == 0.0
