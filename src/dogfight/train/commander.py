"""Commander training: options over frozen fight/escape policies.

Each high-level step the commander picks one option per living agent (escape,
or attack one of its sensed opponents). The chosen low-level policies then
drive the aircraft until the option horizon elapses or a termination event
fires (destruction, boundary proximity, favorable situation), at which point
the commander is re-invoked. Opponents reroll their own fight/escape
assignment at every option boundary with probability p_o of fighting.

Commander transitions span whole options; advantage bootstrapping discounts
by gamma to the power of the option length (semi-MDP targets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ScenarioConfig
from ..env import CombatEnv, LowLevelAction, OUTCOME_WIN
from ..nn.networks import (
    NetworkConfig,
    PolicyNetwork,
    commander_config,
    ctce_config,
    sample_action,
    sample_slots,
)
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
from .buffer import RolloutBuffer, Transition
from .policies import (
    LowLevelActor,
    SnapshotController,
    low_level_actions,
    option_rows,
    pad_to,
)
from .ppo import PPOConfig, ppo_update
from .runs import RunDir
from .trainer import _spawn_seeds


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
                      seed: int, dtype: str = "float32") -> PolicyNetwork:
    critic_width = critic_input_width(
        "commander", scenario.n_agents, scenario.n_opponents, variant.senses)
    if variant.shared:
        config = commander_config(variant.senses, critic_width,
                                  arch=variant.arch, dtype=dtype)
        if variant.n_options != config.instance("cmd").head_arities[0]:
            # noOpt narrows the action head below senses + 1
            from ..nn.networks import InstanceSpec

            inst = config.instance("cmd")
            config = NetworkConfig(
                kind="commander",
                instances=(InstanceSpec(
                    name="cmd", obs_width=inst.obs_width,
                    head_arities=(variant.n_options,),
                    critic_width=inst.critic_width,
                    token_splits=inst.token_splits),),
                recurrent=config.recurrent, fc_baseline=config.fc_baseline,
                dtype=dtype)
        return PolicyNetwork(config, seed=seed)
    obs_width = scenario.n_agents * OBS_LAYOUTS[f"commander-n{variant.senses}"]
    config = ctce_config("commander", obs_width=obs_width,
                         head_arities=(variant.n_options,) * scenario.n_agents,
                         critic_width=critic_width, dtype=dtype)
    if variant.arch == "gru":
        config = NetworkConfig(kind=config.kind, instances=config.instances,
                               recurrent=True, dtype=dtype)
    return PolicyNetwork(config, seed=seed)


class CommanderTrainer:
    def __init__(self, scenario: ScenarioConfig, ppo: PPOConfig,
                 variant: CommanderVariant,
                 fight: PolicyNetwork, escape: PolicyNetwork,
                 run_dir: RunDir | None = None, seed: int = 0,
                 sim_cfg: SimConfig | None = None):
        self.scenario = scenario
        self.ppo = ppo
        self.variant = variant
        self.run_dir = run_dir
        seeds = _spawn_seeds(seed, "commander", 5)
        self.episode_rng = np.random.default_rng(seeds[0])
        self.action_rng = np.random.default_rng(seeds[1])
        self.lowlevel_rng = np.random.default_rng(seeds[2])
        self.opponent_rng = np.random.default_rng(seeds[3])
        self.update_rng = np.random.default_rng(seeds[4])

        self.policy = commander_network(variant, scenario, seed)
        self.fight_actor = LowLevelActor(fight, "fight", self.lowlevel_rng)
        self.escape_actor = LowLevelActor(escape, "escape", self.lowlevel_rng)
        self.opponents = SnapshotController(
            fight=fight, escape=escape, rng=self.opponent_rng,
            fight_prob=scenario.opponent_fight_prob, scenario=scenario)
        self.env = CombatEnv(scenario, opponent_controller=None,
                             reward_kind=("none", None), obs_kind="commander",
                             sim_cfg=sim_cfg or SimConfig())
        self.buffer = RolloutBuffer()
        self.env_steps = 0
        self.episodes = 0
        self.updates = 0
        self._ep_returns: list[float] = []
        self._ep_lengths: list[int] = []
        self._ep_wins: list[bool] = []
        # frozen-opponent guarantee: record the checksums we must not disturb
        self.frozen_checksums = {
            "fight": fight.store.checksum(),
            "escape": escape.store.checksum(),
        }

    # -- decision plumbing -----------------------------------------------------

    def _map_target_index(self, a_c: int) -> int:
        """Map a sampled head index to the sensed-opponent index (1-based);
        with noOpt, attacking always means the closest opponent."""
        if a_c == 0:
            return 0
        return a_c if self.variant.opt else 1

    def _agent_actions(self, decisions: dict[int, dict]
                       ) -> dict[int, LowLevelAction]:
        rows = option_rows(self.env, decisions, self.fight_actor,
                           self.escape_actor)
        return low_level_actions(rows, self.lowlevel_rng)

    def run_episode(self) -> dict:
        env = self.env
        variant = self.variant
        scenario = self.scenario
        env.reset(seed=int(self.episode_rng.integers(1 << 62)))
        self.opponents.reset()
        shared = variant.shared
        if shared:
            hiddens = {aid: self.policy.initial_hidden()
                       for aid in env.agent_ids()}
        else:
            joint_hidden = self.policy.initial_hidden()
        prev_cmd: dict[int, list[float]] = {}
        length = 0
        total_reward = 0.0
        fight_cmds = escape_cmds = 0

        while env.outcome == "ongoing":
            world = env.world
            alive = env.agent_ids()
            critic_in = build_critic_input(
                "commander", world, scenario, prev_cmd,
                scenario.n_agents, scenario.n_opponents)
            decisions: dict[int, dict] = {}
            if shared:
                obs = np.stack([build_obs_commander(world, aid, scenario,
                                                    senses=variant.senses)
                                for aid in alive])
                out = self.policy.forward_actor(
                    "cmd", obs, np.concatenate([hiddens[aid] for aid in alive]),
                    grad=False)
                samples, log_probs, _ = sample_action(out.logits, self.action_rng)
                value = self.policy.forward_critic("cmd", critic_in,
                                                   grad=False).item()
                for i, aid in enumerate(alive):
                    sensed = [o.id for o in closest_opponents(
                        world, world.get(aid), variant.senses)]
                    a_c = int(samples[i, 0])
                    target_idx = self._map_target_index(a_c)
                    assess = assess_commander_action(
                        world, aid, target_idx, sensed, scenario
                    ) if variant.assess else 0.0
                    decisions[aid] = {
                        "obs": obs[i], "sensed": sensed, "a_c": a_c,
                        "target_idx": target_idx, "log_prob": float(log_probs[i]),
                        "value": value, "hidden": hiddens[aid],
                        "reward": assess, "critic_input": critic_in,
                    }
                    if out.hidden is not None:  # gru; sa and fc keep none
                        hiddens[aid] = out.hidden[i:i + 1]
                    prev_cmd[aid] = [a_c / max(1, variant.n_options - 1)]
            else:
                joint_obs, mask, samples, log_prob, value, joint_hidden_in = (
                    self._joint_decide(critic_in, joint_hidden))
                joint_hidden = joint_hidden_in["new"]
                assess_total = 0.0
                for slot, aid in enumerate(range(scenario.n_agents)):
                    if mask[slot] == 0.0:
                        continue
                    sensed = [o.id for o in closest_opponents(
                        world, world.get(aid), variant.senses)]
                    a_c = int(samples[slot])
                    target_idx = self._map_target_index(a_c)
                    if variant.assess:
                        assess_total += assess_commander_action(
                            world, aid, target_idx, sensed, scenario)
                    decisions[aid] = {"sensed": sensed, "a_c": a_c,
                                      "target_idx": target_idx}
                    prev_cmd[aid] = [a_c / max(1, variant.n_options - 1)]
            for d in decisions.values():
                if d["target_idx"] == 0:
                    escape_cmds += 1
                else:
                    fight_cmds += 1

            self.opponents.reassign(world)
            for oid, mode in self.opponents.assignments.items():
                prev_cmd[oid] = [1.0 if mode == "fight" else 0.0]

            option_steps = 0
            option_events = []
            result = None
            while True:
                actions = self._agent_actions(decisions)
                opp_actions = self.opponents.actions(world, env.opponent_ids())
                result = env.step(actions, opponent_actions=opp_actions)
                option_steps += 1
                option_events.extend(result.events)
                length += 1
                if result.terminal:
                    break
                if any(option_terminated(world, aid, option_steps,
                                         result.events, scenario)
                       for aid in env.agent_ids()):
                    break

            if shared:
                for aid, decision in decisions.items():
                    event_reward = commander_event_reward(
                        world, option_events, aid)
                    reward = decision["reward"] + event_reward
                    done = result.terminal or not world.get(aid).alive
                    total_reward += reward
                    self.buffer.add(Transition(
                        instance="cmd", agent_id=aid, episode=self.episodes,
                        obs=decision["obs"], action=np.array([decision["a_c"]]),
                        log_prob=decision["log_prob"], value=decision["value"],
                        reward=reward, done=done,
                        critic_input=decision["critic_input"],
                        duration=option_steps, hidden=decision["hidden"]))
            else:
                event_reward = sum(
                    commander_event_reward(world, option_events, aid)
                    for aid in decisions)
                reward = assess_total + event_reward
                total_reward += reward
                self.buffer.add(Transition(
                    instance="joint", agent_id=-1, episode=self.episodes,
                    obs=joint_obs,
                    action=np.array(samples), log_prob=log_prob, value=value,
                    reward=reward, done=result.terminal,
                    critic_input=critic_in, duration=option_steps,
                    hidden=joint_hidden_in["old"], head_mask=mask))

        self.env_steps += length
        self.episodes += 1
        self._ep_returns.append(total_reward / max(1, scenario.n_agents))
        self._ep_lengths.append(length)
        self._ep_wins.append(env.outcome == OUTCOME_WIN)
        return {"outcome": env.outcome, "length": length,
                "fight_cmds": fight_cmds, "escape_cmds": escape_cmds}

    def _joint_decide(self, critic_in, joint_hidden):
        env = self.env
        scenario = self.scenario
        world = env.world
        obs_w = OBS_LAYOUTS[f"commander-n{self.variant.senses}"]
        slots = []
        mask = np.zeros(scenario.n_agents)
        for aid in range(scenario.n_agents):
            if world.get(aid).alive:
                slots.append(pad_to(build_obs_commander(
                    world, aid, scenario, senses=self.variant.senses), obs_w))
                mask[aid] = 1.0
            else:
                slots.append(np.zeros(obs_w))
        joint_obs = np.concatenate(slots)
        out = self.policy.forward_actor("joint", joint_obs, joint_hidden,
                                        grad=False)
        alive = [slot for slot in range(scenario.n_agents) if mask[slot]]
        picked, log_probs, _ = sample_slots(out.logits, alive, 1, self.action_rng)
        samples = np.zeros(scenario.n_agents, dtype=int)
        samples[alive] = picked[:, 0]
        log_prob = 0.0
        for lp in log_probs:
            log_prob += float(lp)
        value = self.policy.forward_critic("joint", critic_in, grad=False).item()
        new_hidden = out.hidden if out.hidden is not None else joint_hidden
        return joint_obs, mask, samples, log_prob, value, {
            "old": joint_hidden, "new": new_hidden}

    def maybe_update(self) -> bool:
        if len(self.buffer) < self.ppo.batch_size:
            return False
        stats = ppo_update(self.policy, self.buffer, self.ppo, self.update_rng)
        self.buffer.clear()
        self.updates += 1
        if self.run_dir is not None:
            self.run_dir.log_metrics({
                "entropy": stats.entropy,
                "env_steps": self.env_steps,
                "episodes": self.episodes,
                "level": f"commander-{self.variant.label()}",
                "mean_length": float(np.mean(self._ep_lengths)),
                "mean_ratio_first_epoch": stats.mean_ratio_first_epoch,
                "mean_reward": float(np.mean(self._ep_returns)),
                "policy_loss": stats.policy_loss,
                "update": self.updates,
                "value_loss": stats.value_loss,
                "win_rate": float(np.mean(self._ep_wins)),
            })
        self._ep_returns.clear()
        self._ep_lengths.clear()
        self._ep_wins.clear()
        return True

    def train(self, env_steps: int):
        while self.env_steps < env_steps:
            self.run_episode()
            self.maybe_update()
        assert self.frozen_checksums["fight"] == \
            self.fight_actor.policy.store.checksum(), "fight opponents drifted"
        assert self.frozen_checksums["escape"] == \
            self.escape_actor.policy.store.checksum(), "escape opponents drifted"


def train_commander(scenario: ScenarioConfig, ppo: PPOConfig,
                    variant: CommanderVariant, fight: PolicyNetwork,
                    escape: PolicyNetwork, run_dir: RunDir, seed: int,
                    env_steps: int) -> CommanderTrainer:
    trainer = CommanderTrainer(scenario, ppo, variant, fight, escape,
                               run_dir, seed)
    run_dir.write_config({
        "scenario": scenario.__dict__, "ppo": ppo.__dict__,
        "variant": variant.__dict__, "seed": seed, "env_steps": env_steps,
    })
    trainer.train(env_steps)
    from ..nn.params import save_checkpoint

    save_checkpoint(run_dir.checkpoint_path(f"commander_{variant.label()}"),
                    trainer.policy.store, trainer.policy.config.to_dict())
    return trainer
