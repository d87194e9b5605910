"""Observation layout and normalization tests."""

import numpy as np
import pytest
from helpers import make_aircraft, make_world

from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.env import CombatEnv, LowLevelAction
from dogfight.observations import (
    OBS_LAYOUTS,
    build_obs_commander,
    build_obs_escape,
    build_obs_fight,
    build_critic_input,
    commander_block_widths,
    critic_input_width,
    fight_token_splits,
    obs_layout,
)
from dogfight.scripted import ScriptedController
from dogfight.simcore import TEAM_AGENT, TEAM_OPPONENT, SimConfig


def two_vs_two():
    return make_world([
        make_aircraft(0, "AC1", TEAM_AGENT, pos=(10, 10), heading=0.0),
        make_aircraft(1, "AC2", TEAM_AGENT, pos=(12, 10), heading=90.0),
        make_aircraft(2, "AC1", TEAM_OPPONENT, pos=(20, 20), heading=180.0),
        make_aircraft(3, "AC2", TEAM_OPPONENT, pos=(22, 20), heading=270.0),
    ])


class TestLayoutTable:
    # The layout table is frozen; any change to these lengths breaks stored
    # checkpoints and must be deliberate.
    def test_golden_lengths(self):
        assert OBS_LAYOUTS == {
            "fight-AC1": 27,
            "fight-AC2": 25,
            "escape-AC1": 28,
            "escape-AC2": 27,
            "commander-n2": 34,
            "commander-n3": 44,
        }

    def test_block_widths_sum_to_layouts(self):
        assert sum(fight_token_splits("AC1")) == 27
        assert sum(fight_token_splits("AC2")) == 25
        assert sum(commander_block_widths(2)) == 34
        assert sum(commander_block_widths(3)) == 44


class TestFightObs:
    def test_lengths(self):
        world = two_vs_two()
        assert build_obs_fight(world, 0).shape == (27,)
        assert build_obs_fight(world, 1).shape == (25,)

    def test_no_friendly_zero_fill(self):
        world = two_vs_two()
        world.get(1).alive = False
        obs = build_obs_fight(world, 0)
        assert np.all(obs[-6:] == 0.0)

    def test_facing_target_zero_ata(self):
        world = make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(15, 10), heading=0.0),
            make_aircraft(1, "AC1", TEAM_OPPONENT, pos=(15, 20), heading=0.0),
        ])
        obs = build_obs_fight(world, 0)
        # own block: [x, y, s, heading, off, aa, ata, d, ...] -> ata at index 6
        assert obs[6] == 0.0
        # opponent flies away from the agent: aspect angle from its tail is 0
        assert obs[5] == 0.0

    def test_dead_agent_raises(self):
        world = two_vs_two()
        world.get(0).alive = False
        with pytest.raises(ValueError):
            build_obs_fight(world, 0)

    def test_target_override_changes_engaged_opponent(self):
        world = two_vs_two()
        default = build_obs_fight(world, 0)
        overridden = build_obs_fight(world, 0, target_id=3)
        assert not np.allclose(default, overridden)


class TestEscapeObs:
    def test_lengths(self):
        world = two_vs_two()
        assert build_obs_escape(world, 0).shape == (28,)
        assert build_obs_escape(world, 1).shape == (27,)

    def test_single_opponent_pads_second_slot(self):
        world = two_vs_two()
        world.get(3).alive = False
        obs = build_obs_escape(world, 0)
        own = 6
        second = slice(own + 8, own + 16)
        assert np.all(obs[second] == 0.0)
        assert np.any(obs[own:own + 8] != 0.0)

    def test_pure_function(self):
        world = two_vs_two()
        assert np.array_equal(build_obs_escape(world, 0), build_obs_escape(world, 0))


class TestCommanderObs:
    def test_n2_length(self):
        world = two_vs_two()
        assert build_obs_commander(world, 0, senses=2).shape == (34,)

    def test_n3_length(self):
        world = two_vs_two()
        assert build_obs_commander(world, 0, senses=3).shape == (44,)

    def test_solo_agent_zero_friend_blocks(self):
        world = two_vs_two()
        world.get(1).alive = False
        obs = build_obs_commander(world, 0, senses=2)
        assert np.all(obs[-10:] == 0.0)


class TestNormalization:
    def test_bounds_over_random_episodes(self):
        scenario = ScenarioConfig(n_agents=2, n_opponents=2, horizon=60, seed=5)
        env = CombatEnv(scenario, ScriptedController(
            "L3", np.random.default_rng(9), ScriptConfig()), SimConfig())
        rng = np.random.default_rng(123)
        for episode in range(3):
            env.reset(seed=100 + episode)
            done = False
            while not done:
                actions = {}
                for aid in env.agent_ids():
                    for kind in ("fight", "escape"):
                        obs = env.observe(aid, kind)
                        assert np.all(obs >= 0.0) and np.all(obs <= 1.0), (
                            f"{kind} obs out of [0,1]")
                    obs_c = build_obs_commander(env.world, aid,
                                                env.scenario.commander_senses)
                    assert np.all(obs_c >= 0.0) and np.all(obs_c <= 1.0)
                    actions[aid] = LowLevelAction(
                        h=int(rng.integers(-6, 7)), v=int(rng.integers(0, 9)),
                        c=int(rng.random() < 0.3), r=int(rng.random() < 0.1))
                result = env.step(actions, env.opponent_controller(
                    env.world, env.opponent_ids()))
                done = result.terminal or not env.agent_ids()


class TestCriticInput:
    def test_width_and_padding(self):
        world = two_vs_two()
        scenario = ScenarioConfig()
        width = critic_input_width("fight", 2, 2)
        vec = build_critic_input("fight", world, scenario, {}, {})
        assert vec.shape == (width,)
        world.get(3).alive = False
        vec2 = build_critic_input("fight", world, scenario, {}, {})
        slot = width // 4
        assert np.all(vec2[3 * slot:] == 0.0)

    def test_includes_previous_actions(self):
        world = two_vs_two()
        scenario = ScenarioConfig()
        acts = {0: [1.0, 0.5, 1.0, 0.0]}
        vec = build_critic_input("fight", world, scenario, acts, {})
        slot = len(vec) // 4
        assert list(vec[slot - 4:slot]) == acts[0]


def test_obs_layout_helper():
    assert obs_layout("fight", "AC1") == "fight-AC1"
    assert obs_layout("commander", "AC2", 3) == "commander-n3"
