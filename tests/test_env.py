"""Environment-level tests: spawning, action decoding, stepping, outcomes."""

import numpy as np
import pytest
from helpers import make_aircraft, make_world, play

from dogfight.config import ScenarioConfig, ScriptConfig
from dogfight.env import (
    CombatEnv,
    LowLevelAction,
    OUTCOME_DRAW,
    OUTCOME_LOSS,
    OUTCOME_WIN,
    apply_action,
    classify_outcome,
    decode_speed,
    generate_world,
)
from dogfight.observations import (
    LOW_ACTION_WIDTH,
    build_critic_input,
    encode_low_action,
)
from dogfight.rewards import reward_fight
from dogfight.scripted import ScriptedController
from dogfight.simcore import TEAM_AGENT, TEAM_OPPONENT, SimConfig, make_spec
from dogfight.train.policies import EpisodeActor


class TestActions:
    def test_action_validation(self):
        with pytest.raises(ValueError):
            LowLevelAction(h=7, v=0)
        with pytest.raises(ValueError):
            LowLevelAction(h=0, v=9)
        with pytest.raises(ValueError):
            LowLevelAction(h=0, v=0, c=2)

    def test_heading_setpoint(self):
        world = make_world([make_aircraft(0, heading=30.0)])
        apply_action(world, 0, LowLevelAction(h=6, v=0))
        assert world.get(0).target_heading == pytest.approx(120.0)

    def test_speed_mapping_ac1(self):
        spec = make_spec("AC1")
        assert decode_speed(spec, 0) == pytest.approx(100.0)
        assert decode_speed(spec, 8) == pytest.approx(900.0)

    def test_speed_mapping_ac2_midpoint(self):
        spec = make_spec("AC2")
        assert decode_speed(spec, 4) == pytest.approx(350.0)

    def test_rocket_defaults_to_closest_opponent(self):
        world = make_world([
            make_aircraft(0, "AC1", TEAM_AGENT, pos=(10, 10)),
            make_aircraft(1, "AC2", TEAM_OPPONENT, pos=(12, 10)),
            make_aircraft(2, "AC2", TEAM_OPPONENT, pos=(25, 25)),
        ])
        launch = apply_action(world, 0, LowLevelAction(h=0, v=0, r=1))
        assert launch is not None and launch.target == 1


class TestSpawning:
    def test_seeded_reset_is_reproducible(self):
        scenario = ScenarioConfig(seed=42)
        worlds = [generate_world(scenario, np.random.default_rng(7), SimConfig())
                  for _ in range(2)]
        for a, b in zip(worlds[0].aircraft, worlds[1].aircraft):
            assert (a.x, a.y, a.heading, a.speed, a.spec.type_id) == (
                b.x, b.y, b.heading, b.speed, b.spec.type_id)

    def test_heterogeneous_teams(self):
        scenario = ScenarioConfig(n_agents=3, n_opponents=3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            world = generate_world(scenario, rng, SimConfig())
            for team in (TEAM_AGENT, TEAM_OPPONENT):
                types = {a.spec.type_id for a in world.aircraft if a.team == team}
                assert types == {"AC1", "AC2"}

    def test_one_vs_one_uniform_type(self):
        scenario = ScenarioConfig(n_agents=1, n_opponents=1)
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(40):
            world = generate_world(scenario, rng, SimConfig())
            seen.add(world.aircraft[0].spec.type_id)
        assert seen == {"AC1", "AC2"}

    def test_opposite_halves(self):
        scenario = ScenarioConfig()
        rng = np.random.default_rng(5)
        for _ in range(10):
            world = generate_world(scenario, rng, SimConfig())
            half = scenario.map_size / 2
            agent_side = {a.x < half for a in world.aircraft if a.team == TEAM_AGENT}
            opp_side = {a.x < half for a in world.aircraft if a.team == TEAM_OPPONENT}
            assert len(agent_side) == 1 and len(opp_side) == 1
            assert agent_side != opp_side

    def test_ammo_allocation(self):
        scenario = ScenarioConfig()
        world = generate_world(scenario, np.random.default_rng(1), SimConfig())
        for a in world.aircraft:
            expected = 200 if a.team == TEAM_AGENT else 400
            assert a.cannon_ammo == expected
            if a.spec.has_rockets:
                assert a.rockets == (5 if a.team == TEAM_AGENT else 8)

    def test_commander_preset(self):
        scenario = ScenarioConfig.commander_training()
        assert scenario.map_size == 50.0
        assert scenario.agent_cannon == scenario.opponent_cannon == 300
        world = generate_world(scenario, np.random.default_rng(2), SimConfig())
        assert len(world.aircraft) == 6


class TestOutcome:
    def test_win_when_opponents_destroyed(self):
        world = make_world([
            make_aircraft(0, team=TEAM_AGENT),
            make_aircraft(1, "AC2", team=TEAM_OPPONENT, pos=(20, 20)),
        ])
        world.get(1).alive = False
        assert classify_outcome(world, 5, 200) == OUTCOME_WIN

    def test_loss(self):
        world = make_world([
            make_aircraft(0, team=TEAM_AGENT),
            make_aircraft(1, "AC2", team=TEAM_OPPONENT, pos=(20, 20)),
        ])
        world.get(0).alive = False
        assert classify_outcome(world, 5, 200) == OUTCOME_LOSS

    def test_mutual_extinction_draw(self):
        world = make_world([
            make_aircraft(0, team=TEAM_AGENT),
            make_aircraft(1, "AC2", team=TEAM_OPPONENT, pos=(20, 20)),
        ])
        world.get(0).alive = False
        world.get(1).alive = False
        assert classify_outcome(world, 5, 200) == OUTCOME_DRAW

    def test_horizon_draw(self):
        world = make_world([
            make_aircraft(0, team=TEAM_AGENT),
            make_aircraft(1, "AC2", team=TEAM_OPPONENT, pos=(20, 20)),
        ])
        assert classify_outcome(world, 200, 200) == OUTCOME_DRAW


class TestEnvStep:
    def _env(self, level="L1", seed=0, **kw):
        scenario = ScenarioConfig(seed=seed, **kw)
        return CombatEnv(scenario, ScriptedController(
            level, np.random.default_rng(seed + 1), ScriptConfig()), SimConfig())

    def test_step_runs_rounds(self):
        env = self._env()
        env.reset(seed=3)
        before = env.world.round_idx
        env.step({aid: LowLevelAction(h=0, v=0) for aid in env.agent_ids()}, {})
        assert env.world.round_idx == before + env.scenario.rounds_per_step

    def test_draw_at_horizon(self):
        env = self._env(horizon=5)
        env.reset(seed=3)
        result = None
        for _ in range(5):
            result = env.step({aid: LowLevelAction(h=0, v=0)
                               for aid in env.agent_ids()}, {})
        assert result.outcome == OUTCOME_DRAW
        assert result.terminal

    def test_opponents_decide_together_before_the_step(self):
        # the episode loop asks the controller once per step for all living
        # opponents, from the world before any of the step's actions is
        # applied, and the env applies what it decided
        calls, speeds = [], []

        class Recorder:
            def reset(self, world):
                calls.clear()

            def __call__(self, world, opponent_ids):
                calls.append((list(opponent_ids),
                              [world.get(a).speed for a in range(2)]))
                return {oid: LowLevelAction(h=0, v=0) for oid in opponent_ids}

        class FullSpeed(EpisodeActor):
            def begin_episode(self, env):
                speeds[:] = [env.world.get(a).speed for a in range(2)]

            def actions(self, envs):
                return [{aid: LowLevelAction(h=0, v=8)
                         for aid in env.agent_ids()} for env in envs]

        env = CombatEnv(ScenarioConfig(seed=0, horizon=1), Recorder(),
                        SimConfig())
        play([env], FullSpeed(), [3])
        assert calls == [([2, 3], speeds)]
        assert env.world.get(2).speed == decode_speed(env.world.get(2).spec, 0)
        assert env.world.get(0).speed == decode_speed(env.world.get(0).spec, 8)

    def test_decided_gets_the_sampled_decisions_before_the_step(self):
        # the loop hands the actor the very Decision objects its `actions`
        # returned, sampled, while every env still stands where it decided
        from dogfight.train.policies import CTDEDriver, make_low_level_policy

        made, handed = [], []

        class Watching(CTDEDriver):
            def actions(self, envs):
                made.append(super().actions(envs))
                return made[-1]

            def decided(self, envs, decisions):
                handed.append((decisions, [d.samples.copy() for d in decisions],
                               [env.step_count for env in envs]))

        scenario = ScenarioConfig(seed=0, horizon=4)
        policy = make_low_level_policy("fight", "ctde", scenario, seed=1)
        envs = [CombatEnv(scenario, ScriptedController(
                    "L1", np.random.default_rng(k), ScriptConfig()), SimConfig())
                for k in range(2)]
        play(envs, Watching(policy, "fight", np.random.default_rng(2)), [3, 4])
        assert len(handed) == len(made) == max(e.step_count for e in envs)
        for step, (given, (decisions, samples, counts)) in enumerate(
                zip(made, handed)):
            assert len(decisions) == len(given)
            assert all(d is g for d, g in zip(decisions, given))
            assert counts == [step] * len(decisions)
            for d, drawn in zip(decisions, samples):
                assert drawn.shape == (len(d.ids), 4)
                np.testing.assert_array_equal(d.samples, drawn)

    def test_opponent_actions_reach_the_critic_input(self):
        # both teams' actions are the previous actions, so after one step
        # against scripted L3 each opponent's critic block ends with the
        # encoding of the action its controller chose
        chosen = {}

        class Recording(ScriptedController):
            def __call__(self, world, opponent_ids):
                chosen.update(super().__call__(world, opponent_ids))
                return dict(chosen)

        class Holding(EpisodeActor):
            def actions(self, envs):
                return [{aid: LowLevelAction(h=0, v=4)
                         for aid in env.agent_ids()} for env in envs]

        scenario = ScenarioConfig(seed=0, horizon=1)
        env = CombatEnv(scenario, Recording("L3", np.random.default_rng(4),
                                            ScriptConfig()), SimConfig())
        play([env], Holding(), [5])
        critic = build_critic_input("fight", env.world, scenario,
                                    env.prev_actions, {})
        slots = critic.reshape(scenario.n_agents + scenario.n_opponents, -1)
        assert sorted(chosen) == [2, 3]
        for oid, action in chosen.items():
            assert env.world.get(oid).alive
            np.testing.assert_array_equal(slots[oid][-LOW_ACTION_WIDTH:],
                                          encode_low_action(action))
        np.testing.assert_array_equal(slots[0][-LOW_ACTION_WIDTH:],
                                      encode_low_action(LowLevelAction(0, 4)))

    def test_fixed_seed_episode_reproducible(self):
        def run():
            env = self._env(level="L2", seed=7)
            env.reset(seed=11)
            log = []
            rng = np.random.default_rng(13)
            for _ in range(30):
                acts = {aid: LowLevelAction(h=int(rng.integers(-6, 7)),
                                            v=int(rng.integers(0, 9)),
                                            c=int(rng.random() < 0.5))
                        for aid in env.agent_ids()}
                result = env.step(acts, {})
                log.append(([reward_fight(env.world, result.events, aid, "base", 0.5)
                             for aid in sorted(acts)], result.outcome,
                            tuple(result.events)))
                if result.terminal:
                    break
            return log

        assert run() == run()

    def test_step_after_terminal_raises(self):
        env = self._env(horizon=1)
        env.reset(seed=3)
        env.step({aid: LowLevelAction(h=0, v=0) for aid in env.agent_ids()}, {})
        with pytest.raises(RuntimeError):
            env.step({}, {})

    def test_zero_team_size_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=0)
