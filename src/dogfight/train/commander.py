"""Commander training: options over frozen fight/escape policies.

Each high-level step the commander picks one option per living agent (escape,
or attack one of its sensed opponents). The chosen low-level policies then
drive the aircraft until the option horizon elapses or a termination event
fires (destruction, boundary proximity, favorable situation), at which point
the commander is re-invoked. Opponents reroll their own fight/escape
assignment at every option boundary with probability p_o of fighting.

Commander transitions span whole options; advantage bootstrapping discounts
by gamma to the power of the option length (semi-MDP targets).

The option loop, `HierarchyEvalActor`, is the one evaluation runs; it hands
each commander decision to `CommanderTrainer` in the step that makes it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace
from weakref import WeakKeyDictionary

import numpy as np

from ..config import ScenarioConfig
from ..env import CombatEnv, episode_stream
from ..nn.networks import (
    Decision,
    PolicyNetwork,
    commander_config,
    ctce_config,
    decide,
)
from ..nn.params import save_checkpoint
from ..observations import (
    OBS_LAYOUTS,
    build_critic_input,
    build_obs_commander,
    closest_opponents,
    critic_input_width,
)
from ..rewards import (
    assess_commander_action,
    commander_event_reward,
    option_terminated,
)
from ..simcore import SimConfig
from .buffer import Transition
from .policies import (
    CTDEDriver,
    EpisodeActor,
    SnapshotController,
    decision_transitions,
    joint_obs,
    lockstep_envs,
    set_values,
)
from .ppo import PPOConfig
from .runs import RunDir
from .trainer import TrainerCore


@dataclass
class CommanderVariant:
    """The commander ablation grid."""

    senses: int = 2  # N2 | N3: sensed opponents
    opt: bool = True  # Opt: pick which opponent; noOpt: attack means closest
    assess: bool = True  # include the action-assessment reward
    shared: bool = True  # Shared (per-agent CTDE) | Glob (joint CTCE)
    arch: str = "gru"  # gru | sa | fc

    @property
    def n_options(self) -> int:
        return (self.senses if self.opt else 1) + 1

    def label(self) -> str:
        return "-".join([
            "Shared" if self.shared else "Glob",
            f"N{self.senses}",
            "Opt" if self.opt else "noOpt",
            "Assess" if self.assess else "noAssess",
        ])


def commander_network(variant: CommanderVariant, scenario: ScenarioConfig,
                      seed: int) -> PolicyNetwork:
    critic_width = critic_input_width(
        "commander", scenario.n_agents, scenario.n_opponents, variant.senses)
    if variant.shared:
        config = commander_config(variant.senses, critic_width,
                                  arch=variant.arch, opt=variant.opt)
        return PolicyNetwork(config, seed=seed)
    obs_width = scenario.n_agents * OBS_LAYOUTS[f"commander-n{variant.senses}"]
    config = ctce_config("commander", obs_width=obs_width,
                         head_arities=(variant.n_options,) * scenario.n_agents,
                         critic_width=critic_width)
    return PolicyNetwork(replace(config, recurrent=variant.arch == "gru"),
                         seed=seed)


class HierarchyEvalActor(EpisodeActor):
    """The option loop of commander training and evaluation: a commander
    over frozen fight/escape policies, re-invoked at option boundaries.

    At a boundary (an episode's first step, or the step after one that
    `option_terminated` ends) the commander picks one option per living
    agent: escape, or fight a sensed opponent. When the env's opponent
    controller is a `SnapshotController`, its opponents re-roll their
    fight/escape assignments at the same boundary. A shared commander
    ("cmd" instance) decides each agent from its own observation and hidden
    state; a joint one ("joint") decides the team from the zero-padded joint
    observation. The commander decisions of every env at a boundary are
    made in one `decide` call and kept in `commanded` (env -> `Decision`)
    for that step only, where `CommanderTrainer` reads them. Each episode
    keeps what flies its option in `slots`: its commander stream spawned
    from `rng`, hidden states, the options, `(target_idx, sensed)` per
    agent (none at a boundary), and their age. The flown low-level
    decisions draw from the fight actor's episode streams. Tracks command
    and opponent-selection statistics."""

    def __init__(self, commander: PolicyNetwork, fight: PolicyNetwork,
                 escape: PolicyNetwork, rng: np.random.Generator,
                 senses: int, opt: bool, greedy: bool = True):
        arities = commander.config.instances[0].head_arities
        if set(arities) != {senses + 1 if opt else 2}:
            raise ValueError(f"{'Opt' if opt else 'noOpt'}-N{senses} does not "
                             f"match the commander's head arities {arities}")
        self.commander = commander
        self.instance = commander.config.instances[0].name
        self.fight_actor = CTDEDriver(fight, "fight", rng, greedy=greedy)
        self.escape_actor = CTDEDriver(escape, "escape", rng, greedy=greedy)
        self.rng = rng
        self.senses = senses
        self.greedy = greedy
        self.fight_commands = 0
        self.escape_commands = 0
        self.opponent_selection = [0, 0, 0]
        self.slots = WeakKeyDictionary()  # env -> its episode's state
        self.commanded = {}  # env -> the commander's `Decision` this step

    def begin_episode(self, env: CombatEnv):
        keys = env.agent_ids() if self.instance == "cmd" else [-1]
        self.slots[env] = SimpleNamespace(
            rng=episode_stream(self.rng),
            hiddens={k: self.commander.initial_hidden() for k in keys},
            options={}, steps_in_option=0)
        self.fight_actor.begin_episode(env)

    def _command(self, envs: list[CombatEnv]) -> list[Decision]:
        """The commander's decisions for `envs`, decided in one call."""
        decisions = []
        for env in envs:
            slot, world, scenario = self.slots[env], env.world, env.scenario

            def observe(aid):
                return build_obs_commander(world, aid, self.senses)

            rng = None if self.greedy else slot.rng
            if self.instance == "cmd":
                alive = env.agent_ids()
                decisions.append(Decision(
                    [(self.commander, "cmd", observe(aid)) for aid in alive],
                    alive, rng, hidden=np.concatenate(
                        [slot.hiddens[aid] for aid in alive])))
            else:
                obs, alive = joint_obs(
                    world, scenario.n_agents,
                    OBS_LAYOUTS[f"commander-n{self.senses}"], observe)
                decisions.append(Decision([(self.commander, "joint", obs)],
                                          alive, rng, hidden=slot.hiddens[-1],
                                          slot_heads=1))
        decide(decisions)
        for env, d in zip(envs, decisions):
            if d.new_hidden is not None:  # gru; sa and fc keep none
                keys = d.ids if self.instance == "cmd" else [-1]
                for i, key in enumerate(keys):
                    self.slots[env].hiddens[key] = d.new_hidden[i:i + 1]
        return decisions

    def _decide(self, env: CombatEnv, d: Decision):
        """The options of `env`'s agents from the commander's decision."""
        world, options = env.world, self.slots[env].options
        for aid, target_idx in zip(d.ids, d.samples[:, 0].tolist()):
            if target_idx == 0:
                self.escape_commands += 1
            else:
                self.fight_commands += 1
                self.opponent_selection[min(target_idx, 3) - 1] += 1
            options[aid] = (target_idx, [o.id for o in closest_opponents(
                world, world.get(aid), self.senses)])

    def actions(self, envs: list[CombatEnv]) -> list[Decision]:
        """Decide at each env's option boundary, re-rolling snapshot
        opponents there too, then fly every living agent's option: escape,
        or fight its chosen sensed opponent (no target once it is gone),
        setting that rocket target on the env. An env's fight and escape
        rows make one decision on its low-level stream."""
        due = [env for env in envs if not self.slots[env].options]
        self.commanded = dict(zip(due, self._command(due)))
        for env, d in self.commanded.items():
            self._decide(env, d)
            if isinstance(env.opponent_controller, SnapshotController):
                env.opponent_controller.reassign(env.world)
        flown = []
        for env in envs:
            options, world = self.slots[env].options, env.world
            ids = env.agent_ids()
            rows = []
            for aid in ids:
                target_idx, sensed = options[aid]
                target = None
                if (0 < target_idx <= len(sensed)
                        and world.get(sensed[target_idx - 1]).alive):
                    target = sensed[target_idx - 1]
                env.set_attack_target(aid, target)
                actor = self.escape_actor if target_idx == 0 else self.fight_actor
                rows.append(actor.row(env, aid))
            flown.append(Decision(rows, ids, None if self.greedy
                                  else self.fight_actor.streams[env]))
        return flown

    def observe_step(self, env: CombatEnv, result):
        """Ages the option; one that ends before the episode does makes the
        next step a boundary."""
        slot = self.slots[env]
        slot.steps_in_option += 1
        if not result.terminal and option_terminated(
                env.world, slot.steps_in_option, result.events, env.scenario):
            slot.options, slot.steps_in_option = {}, 0


class CommanderTrainer(TrainerCore):
    """Commander PPO: runs episodes through a `HierarchyEvalActor` and adds
    what training needs at each option boundary: the critic value, the
    assessment reward, the previous commands in the critic input, and one
    transition per decision (per agent, or one for a joint commander), read
    from the actor's `commanded` in the step that makes it. Each
    `run_episode` is one collect over `LOCKSTEP_EPISODES` env slots, each
    slot with its own snapshot opponents. The benchmark trains at the
    default `sim_cfg`."""

    SEED_LABEL = "commander"
    STREAMS = ("episode", "action", "lowlevel", "opponent", "update")

    def __init__(self, scenario: ScenarioConfig, ppo: PPOConfig,
                 variant: CommanderVariant,
                 fight: PolicyNetwork, escape: PolicyNetwork,
                 run_dir: RunDir, seed: int, sim_cfg: SimConfig = SimConfig()):
        if variant.senses != scenario.commander_senses:
            raise ValueError(
                f"the variant senses {variant.senses} opponents but "
                f"scenario.commander_senses is {scenario.commander_senses}")
        super().__init__(scenario, ppo, run_dir, seed)
        self.variant = variant
        self.level = f"commander-{variant.label()}"
        self.policy = commander_network(variant, scenario, seed)
        self.policies = {0: self.policy}
        self.reward = commander_event_reward
        self.actor = HierarchyEvalActor(
            self.policy, fight, escape, self.lowlevel_rng, senses=variant.senses,
            opt=variant.opt, greedy=False)
        self.actor.rng = self.action_rng  # commander draws on their own stream
        self.fight_actor = self.actor.fight_actor
        self.escape_actor = self.actor.escape_actor
        self.envs = lockstep_envs(CombatEnv(
            scenario, SnapshotController(
                fight=fight, escape=escape, rng=self.opponent_rng,
                fight_prob=scenario.opponent_fight_prob, scenario=scenario),
            sim_cfg))
        # frozen-opponent guarantee: record the checksums we must not disturb
        self.frozen_checksums = {
            "fight": fight.store.checksum(),
            "escape": escape.store.checksum(),
        }

    def run_episode(self, budget: int | None = None):
        """One collect (see `TrainerCore`) on the trainer's env slots."""
        self._play(self.envs, budget)

    def begin_episode(self, env: CombatEnv):
        super().begin_episode(env)
        self._open[env].prev_cmd = {}  # no commands yet

    def _decide(self, envs: list[CombatEnv], decisions: list):
        """The transitions of the commander decisions the actor made this
        step (None where an earlier decision flies on), valued in one critic
        forward; the flown low-level `decisions` are not trained."""
        commanded = self.actor.commanded
        out = [self._decision_transitions(env, commanded[env])
               if env in commanded else None for env in envs]
        set_values([t for ts in out if ts for t in ts], lambda t: self.policy)
        return out

    def _decision_transitions(self, env: CombatEnv, d: Decision
                              ) -> list[Transition]:
        """Transitions of the commander decision `d` on `env`, with the
        assessment reward so far and a critic input that reuses a shared
        commander's row observations (`_decide` sets the values); records the
        commands in the episode's previous commands."""
        world, scenario, variant = env.world, self.scenario, self.variant
        episode, options = self._open[env], self.actor.slots[env].options
        prev_cmd = episode.prev_cmd
        observations = ({} if d.slot_heads else
                        {aid: obs for aid, (_, _, obs) in zip(d.ids, d.rows)})
        critic_in = build_critic_input("commander", world, scenario, prev_cmd,
                                       observations)
        assess = [assess_commander_action(world, aid, *options[aid], scenario)
                  if variant.assess else 0.0 for aid in d.ids]
        for aid, a_c in zip(d.ids, d.samples[:, 0].tolist()):
            prev_cmd[aid] = [a_c / max(1, variant.n_options - 1)]
        for oid, mode in env.opponent_controller.assignments.items():
            prev_cmd[oid] = [1.0 if mode == "fight" else 0.0]
        return decision_transitions(d, episode.index,
                                    [critic_in] * len(d.ids), assess)

    def train(self, env_steps: int):
        """Trains for `env_steps` more env steps; the frozen low-level
        networks must come out unchanged."""
        self.train_for(env_steps)
        assert self.frozen_checksums["fight"] == \
            self.fight_actor.policy.store.checksum(), "fight opponents drifted"
        assert self.frozen_checksums["escape"] == \
            self.escape_actor.policy.store.checksum(), "escape opponents drifted"


def train_commander(scenario: ScenarioConfig, ppo: PPOConfig,
                    variant: CommanderVariant, fight: PolicyNetwork,
                    escape: PolicyNetwork, run_dir: RunDir, seed: int,
                    env_steps: int, sim_cfg: SimConfig) -> CommanderTrainer:
    trainer = CommanderTrainer(scenario, ppo, variant, fight, escape,
                               run_dir, seed, sim_cfg)
    trainer.write_config(variant=variant.__dict__, env_steps=env_steps)
    trainer.train(env_steps)
    save_checkpoint(run_dir.checkpoint_path(f"commander_{variant.label()}"),
                    trainer.policy.store,
                    {**trainer.policy.config.to_dict(),
                     "variant": variant.__dict__})
    return trainer
