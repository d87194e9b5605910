"""Scripted opponent behavior tests."""

import numpy as np
import pytest
from helpers import XY, FullTurn, make_aircraft, make_world

from dogfight.config import ScriptConfig, ScenarioConfig
from dogfight.env import CombatEnv, LowLevelAction
from dogfight.geometry import ata, distance
from dogfight.scripted import ScriptedController, l1_policy, l2_policy, l3_policy
from dogfight.simcore import TEAM_AGENT, TEAM_OPPONENT, SimConfig


def pursuit_world(opp_pos=(15, 15), opp_heading=0.0, agent_pos=(15, 25),
                  opp_type="AC1"):
    return make_world([
        make_aircraft(0, "AC2", TEAM_AGENT, pos=agent_pos),
        make_aircraft(1, opp_type, TEAM_OPPONENT, pos=opp_pos,
                      heading=opp_heading),
    ])


class TestL1:
    def test_holds_position_commands(self):
        world = pursuit_world()
        action = l1_policy(world, 1)
        assert action == LowLevelAction(h=0, v=0, c=0, r=0)

    def test_deterministic(self):
        world = pursuit_world()
        assert l1_policy(world, 1) == l1_policy(world, 1)

    def test_min_speed_drift_only(self):
        scenario = ScenarioConfig(n_agents=1, n_opponents=1, horizon=100)
        env = CombatEnv(scenario, ScriptedController(
            "L1", np.random.default_rng(0), ScriptConfig()), SimConfig())
        env.reset(seed=21)
        opp = env.world.alive(TEAM_OPPONENT)[0]
        start = XY(opp.x, opp.y)
        for _ in range(100):
            result = env.step({aid: LowLevelAction(h=0, v=0)
                               for aid in env.agent_ids()},
                              env.opponent_controller(env.world,
                                                      env.opponent_ids()))
            if result.terminal:
                break
        # 100 kn for 100 seconds ~ 5.14 km ceiling
        assert distance(start, opp) <= 100 * 0.000514444 * 100 + 1e-6

    def test_dead_opponent_rejected(self):
        world = pursuit_world()
        world.get(1).alive = False
        with pytest.raises(ValueError):
            l1_policy(world, 1)


class TestL2:
    def test_heading_bins_uniform(self):
        world = pursuit_world()
        rng = np.random.default_rng(5)
        n = 100_000
        counts = np.zeros(13)
        for _ in range(n):
            counts[l2_policy(world, 1, rng, ScriptConfig()).h + 6] += 1
        expected = n / 13
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 21.03  # chi-square critical value, df=12, alpha=0.05

    def test_fire_frequency(self):
        world = pursuit_world()
        rng = np.random.default_rng(6)
        fires = sum(l2_policy(world, 1, rng, ScriptConfig()).c for _ in range(10_000))
        assert fires / 10_000 == pytest.approx(0.1, abs=0.01)

    def test_reproducible_stream(self):
        world = pursuit_world()
        a = [l2_policy(world, 1, np.random.default_rng(9), ScriptConfig())
             for _ in range(20)]
        b = [l2_policy(world, 1, np.random.default_rng(9), ScriptConfig())
             for _ in range(20)]
        assert a == b


class TestL3:
    def test_dead_ahead_no_correction(self):
        world = pursuit_world(opp_pos=(15, 15), opp_heading=0.0, agent_pos=(15, 25))
        action, target = l3_policy(world, 1, FullTurn(),
                                   ScriptConfig(flee_probability=0.0), {})
        assert action.h == 0
        assert target == 0

    def test_target_right_commands_positive(self):
        world = pursuit_world(opp_pos=(15, 15), opp_heading=0.0, agent_pos=(25, 15))
        action, _ = l3_policy(world, 1, FullTurn(),
                              ScriptConfig(flee_probability=0.0), {})
        assert action.h == 6

    def test_target_left_commands_negative(self):
        world = pursuit_world(opp_pos=(15, 15), opp_heading=0.0, agent_pos=(5, 15))
        action, _ = l3_policy(world, 1, FullTurn(),
                              ScriptConfig(flee_probability=0.0), {})
        assert action.h == -6

    def test_command_never_exceeds_90(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            world = pursuit_world(
                opp_pos=(15, 15), opp_heading=rng.uniform(0, 360),
                agent_pos=(rng.uniform(2, 28), rng.uniform(2, 28)))
            action, _ = l3_policy(world, 1, rng,
                                  ScriptConfig(flee_probability=0.0), {})
            assert -6 <= action.h <= 6

    def test_speed_drops_when_close(self):
        cfg = ScriptConfig(flee_probability=0.0)
        far = pursuit_world(opp_pos=(15, 2), agent_pos=(15, 25))
        near = pursuit_world(opp_pos=(15, 24), agent_pos=(15, 25))
        act_far, _ = l3_policy(far, 1, FullTurn(), cfg, {})
        act_near, _ = l3_policy(near, 1, FullTurn(), cfg, {})
        assert act_far.v == 8
        assert act_near.v < act_far.v

    def test_pure_pursuit_mode_no_fire(self):
        # fire scale -> 0 and no fleeing reduces L3 to pure pursuit
        cfg = ScriptConfig(flee_probability=0.0, fire_ata_scale=0.0)
        rng = np.random.default_rng(3)
        world = pursuit_world()
        for _ in range(100):
            action, _ = l3_policy(world, 1, rng, cfg, {})
            assert action.c == 0 and action.r == 0

    def test_fire_probability_rises_with_alignment(self):
        cfg = ScriptConfig(flee_probability=0.0, fire_ata_scale=45.0)
        aligned = pursuit_world(opp_pos=(15, 15), opp_heading=0.0,
                                agent_pos=(15, 20))
        offset = pursuit_world(opp_pos=(15, 15), opp_heading=90.0,
                               agent_pos=(15, 20))
        rng = np.random.default_rng(8)
        fires_aligned = sum(
            l3_policy(aligned, 1, rng, cfg, {})[0].c for _ in range(2000))
        fires_offset = sum(
            l3_policy(offset, 1, rng, cfg, {})[0].c for _ in range(2000))
        assert fires_aligned > 1900  # ata 0 -> certain fire
        assert fires_offset == 0  # ata 90 > scale 45 -> never

    def test_flee_overrides_for_duration(self):
        cfg = ScriptConfig(flee_probability=1.0, flee_duration=5)
        world = pursuit_world(opp_pos=(15, 15), opp_heading=0.0, agent_pos=(15, 25))
        flee_state = {}
        rng = np.random.default_rng(2)
        actions = [l3_policy(world, 1, rng, cfg, flee_state)[0] for _ in range(5)]
        # fleeing from an agent due north: turn away (south) at max speed
        assert all(a.v == 8 and a.c == 0 and a.r == 0 for a in actions)
        assert actions[0].h in (-6, 6)

    def test_alignment_property_sample(self):
        # convergence of the pursuit loop on a slice of random spawns; the
        # full 500-spawn sweep lives in the acceptance suite
        from dogfight.env import apply_action

        rng = np.random.default_rng(17)
        cfg = ScriptConfig(flee_probability=0.0, fire_ata_scale=0.0)
        converged = 0
        tried = 0
        shift = 100.0  # opened arena: the boundary must not cut chases short
        while tried < 50:
            world = make_world([
                make_aircraft(0, "AC2", TEAM_AGENT,
                              pos=(shift + rng.uniform(3, 27),
                                   shift + rng.uniform(3, 27))),
                make_aircraft(1, rng.choice(["AC1", "AC2"]), TEAM_OPPONENT,
                              pos=(shift + rng.uniform(3, 27),
                                   shift + rng.uniform(3, 27)),
                              heading=rng.uniform(0, 360)),
            ], map_size=230.0, seed=int(rng.integers(1 << 31)))
            opp = world.get(1)
            agent = world.get(0)
            start_ata = ata(opp, opp.heading, agent)
            gap = distance(opp, agent)
            # Non-degenerate: half the 30-decision turn budget must cover the
            # initial offset (the rest absorbs line-of-sight drift) and the
            # chase must start outside the pursuer's turn circle (v/omega).
            if gap < 8.0 or start_ata > opp.spec.max_turn_rate * 30.0 / 2.0:
                continue
            tried += 1
            for _ in range(30):
                action, _ = l3_policy(world, 1, FullTurn(), cfg, {})
                apply_action(world, 1, action)
                for _ in range(10):
                    from dogfight.simcore import step_round

                    step_round(world)
                if not (opp.alive and agent.alive):
                    break
                if ata(opp, opp.heading, agent) < 15.0:
                    converged += 1
                    break
        assert converged == tried


class TestController:
    def test_l3_controller_round_trip(self):
        scenario = ScenarioConfig(horizon=30, seed=3)
        env = CombatEnv(scenario, ScriptedController(
            "L3", np.random.default_rng(4), ScriptConfig()), SimConfig())
        env.reset(seed=5)
        for _ in range(10):
            result = env.step({aid: LowLevelAction(h=0, v=4)
                               for aid in env.agent_ids()},
                              env.opponent_controller(env.world,
                                                      env.opponent_ids()))
            if result.terminal:
                break

    def test_unknown_level_raises(self):
        controller = ScriptedController("L9", np.random.default_rng(0), ScriptConfig())
        world = pursuit_world()
        with pytest.raises(ValueError):
            controller(world, [1])
