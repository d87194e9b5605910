"""Action drivers: how policies of each training framework pick actions and
record transitions, the low-level actor that flies frozen or training
policies, and the frozen-snapshot opponent controller.

CTDE keeps one network instance per aircraft type shared by all same-type
agents. DTDE gives every agent id its own parameter store with a local
critic. CTCE drives the whole team through a single joint network whose head
list concatenates every agent slot's four control heads.

Decisions are graph-free and batched: each env step runs one actor forward
per (network, instance) over the agents it drives and samples all agents
in one call, in agent-id order, so the action generator draws exactly what
one-agent-at-a-time sampling would. `evaluate` drives the same code:
`LowLevelActor`, `CTCEDriver` and the commander's option loop are its
actors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ScenarioConfig
from ..env import CombatEnv, LowLevelAction
from ..nn.networks import (
    PolicyNetwork,
    ctce_config,
    escape_config,
    fight_config,
    sample_rows,
    sample_slots,
)
from ..observations import (
    FIGHT_HEADS,
    OBS_LAYOUTS,
    build_critic_input,
    build_obs,
    closest_opponents,
    critic_input_width,
    encode_low_action,
)
from ..simcore import TEAM_AGENT, TEAM_OPPONENT, World
from .buffer import Transition

LOW_ACTION_HEADS = len(FIGHT_HEADS)


def instance_for(world: World, aircraft_id: int) -> str:
    return world.get(aircraft_id).spec.type_id.lower()


def make_low_level_policy(kind: str, framework: str, scenario: ScenarioConfig,
                          seed: int, attention: bool = True,
                          fc_baseline: bool = False,
                          dtype: str = "float32"):
    """Networks for one low-level training mode.

    Returns a PolicyNetwork (ctde/ctce) or a per-agent-id dict (dtde).
    """
    slots = scenario.n_agents + scenario.n_opponents
    if kind == "escape":
        global_width = slots * (OBS_LAYOUTS["escape-AC1"] + 4)
    else:
        global_width = slots * (OBS_LAYOUTS["fight-AC1"] + 4)

    if framework == "ctde":
        if kind == "escape":
            return PolicyNetwork(escape_config(global_width, dtype=dtype), seed=seed)
        return PolicyNetwork(fight_config(global_width, attention=attention,
                                          fc_baseline=fc_baseline, dtype=dtype),
                             seed=seed)
    if framework == "ctce":
        slot_obs = OBS_LAYOUTS["escape-AC1" if kind == "escape" else "fight-AC1"]
        config = ctce_config(kind, obs_width=scenario.n_agents * slot_obs,
                             head_arities=FIGHT_HEADS * scenario.n_agents,
                             critic_width=global_width, dtype=dtype)
        return PolicyNetwork(config, seed=seed)
    if framework == "dtde":
        raise ValueError("dtde policies are created per agent via make_dtde_policies")
    raise ValueError(f"unknown framework {framework!r}")


def make_dtde_policies(kind: str, agent_types: list[str], seed: int,
                       attention: bool = True,
                       dtype: str = "float32") -> dict[int, PolicyNetwork]:
    """Independent per-agent networks with local critics (own obs + own
    previous action)."""
    policies = {}
    for aid, type_id in enumerate(agent_types):
        layout = f"{'escape' if kind == 'escape' else 'fight'}-{type_id}"
        local_width = OBS_LAYOUTS[layout] + 4
        if kind == "escape":
            config = escape_config(local_width, dtype=dtype)
        else:
            config = fight_config(local_width, attention=attention, dtype=dtype)
        policies[aid] = PolicyNetwork(config, seed=seed + 1000 + aid)
    return policies


def joint_obs(world: World, n_agents: int, width: int, observe
              ) -> tuple[np.ndarray, list[int]]:
    """The joint observation of agent slots 0..n_agents-1, each slot
    `observe(agent_id)` zero-padded to `width`, a destroyed agent's slot all
    zeros; and the living slots."""
    obs = np.zeros(n_agents * width)
    alive = [aid for aid in range(n_agents) if world.get(aid).alive]
    for aid in alive:
        vec = observe(aid)
        obs[aid * width: aid * width + len(vec)] = vec
    return obs, alive


def low_level_actions(rows: dict[int, tuple[PolicyNetwork, str, np.ndarray]],
                      rng: np.random.Generator, greedy: bool = False
                      ) -> dict[int, LowLevelAction]:
    """One action per aircraft id from its `(policy, instance, obs)` row,
    sampled in the dict's order (see `sample_rows`)."""
    if not rows:
        return {}
    samples, _ = sample_rows(list(rows.values()), rng, greedy)
    return {aid: LowLevelAction.from_heads(s) for aid, s in zip(rows, samples)}


class EpisodeActor:
    """What `evaluate` drives: `actions(env)` once per env step, plus hooks
    at the start of an episode and after each step, empty here."""

    def begin_episode(self, env: CombatEnv):
        pass

    def observe_step(self, env: CombatEnv, result):
        pass


@dataclass
class LowLevelActor(EpisodeActor):
    """Execution-time action selection for a frozen or training policy."""

    policy: PolicyNetwork
    kind: str  # fight | escape
    rng: np.random.Generator
    greedy: bool = False

    def row(self, world: World, agent_id: int, target_id: int | None = None,
            scenario: ScenarioConfig | None = None
            ) -> tuple[PolicyNetwork, str, np.ndarray]:
        """The decision row of one aircraft (see `low_level_actions`)."""
        obs = build_obs(self.kind, world, agent_id, scenario, target_id=target_id)
        return self.policy, instance_for(world, agent_id), obs

    def actions(self, env: CombatEnv) -> dict[int, LowLevelAction]:
        """One action per living agent, none with an assigned target."""
        return low_level_actions(
            {aid: self.row(env.world, aid, scenario=env.scenario)
             for aid in env.agent_ids()},
            self.rng, self.greedy)


@dataclass
class SnapshotController:
    """Opponent controller running frozen fight/escape checkpoints.

    Each opponent carries a fight-or-escape assignment; `reassign` rerolls it
    with the configured fight probability (used at option boundaries in
    commander training; pure-fight opponents just keep the default)."""

    fight: PolicyNetwork | None
    escape: PolicyNetwork | None = None
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    fight_prob: float = 1.0
    greedy: bool = False
    scenario: ScenarioConfig | None = None
    assignments: dict[int, str] = field(default_factory=dict)

    def reset(self, world: World):
        self.assignments.clear()

    def reassign(self, world: World):
        for opp in world.alive(TEAM_OPPONENT):
            fight = self.rng.random() < self.fight_prob
            self.assignments[opp.id] = "fight" if fight and self.fight else "escape"

    def __call__(self, world: World, opponent_ids: list[int]
                 ) -> dict[int, tuple[LowLevelAction, int | None]]:
        """Actions and rocket targets (closest enemy) of the given opponents,
        decided together."""
        rows = {}
        for oid in opponent_ids:
            mode = self.assignments.get(oid, "fight" if self.fight else "escape")
            policy = self.fight if mode == "fight" else self.escape
            if policy is None:
                raise RuntimeError(f"no {mode} checkpoint loaded for opponents")
            rows[oid] = (policy, instance_for(world, oid),
                         build_obs(mode, world, oid, self.scenario))
        out = {}
        for oid, action in low_level_actions(rows, self.rng, self.greedy).items():
            targets = closest_opponents(world, world.get(oid), 1)
            out[oid] = (action, targets[0].id if targets else None)
        return out


def _transitions(rows: dict, samples: np.ndarray, log_probs: np.ndarray,
                 values: dict, critic_inputs: dict, episode: int
                 ) -> tuple[dict[int, LowLevelAction], list[Transition]]:
    """Actions and reward-less transitions of the sampled rows; `values` and
    `critic_inputs` are keyed by agent id."""
    actions: dict[int, LowLevelAction] = {}
    transitions: list[Transition] = []
    for (aid, (_, instance, obs)), action, log_prob in zip(
            rows.items(), samples, log_probs):
        actions[aid] = LowLevelAction.from_heads(action)
        transitions.append(Transition(
            instance=instance, agent_id=aid, episode=episode, obs=obs,
            action=action, log_prob=float(log_prob), value=values[aid],
            reward=0.0, done=False, critic_input=critic_inputs[aid]))
    return actions, transitions


class CTDEDriver:
    """Shared-per-type policy: each agent samples from its type's instance;
    critics see the global observation/action concatenation, so one value
    per instance serves all of its agents."""

    def __init__(self, policy: PolicyNetwork, kind: str,
                 scenario: ScenarioConfig, rng: np.random.Generator):
        self.policy = policy
        self.kind = kind
        self.scenario = scenario
        self.rng = rng

    def act(self, env: CombatEnv, episode: int
            ) -> tuple[dict[int, LowLevelAction], list[Transition]]:
        world = env.world
        critic_in = build_critic_input(self.kind, world, self.scenario,
                                       env.prev_actions,
                                       self.scenario.n_agents,
                                       self.scenario.n_opponents)
        rows = {aid: (self.policy, instance_for(world, aid),
                      env.observe(aid, self.kind))
                for aid in env.agent_ids()}
        samples, log_probs = sample_rows(list(rows.values()), self.rng)
        per_instance = {
            instance: self.policy.forward_critic(instance, critic_in,
                                                 grad=False).item()
            for instance in dict.fromkeys(row[1] for row in rows.values())}
        values = {aid: per_instance[row[1]] for aid, row in rows.items()}
        return _transitions(rows, samples, log_probs, values,
                            dict.fromkeys(rows, critic_in), episode)


class DTDEDriver:
    """Fully decentralized: per-agent networks and local critics."""

    def __init__(self, policies: dict[int, PolicyNetwork], kind: str,
                 scenario: ScenarioConfig, rng: np.random.Generator):
        self.policies = policies
        self.kind = kind
        self.scenario = scenario
        self.rng = rng

    def act(self, env: CombatEnv, episode: int
            ) -> tuple[dict[int, LowLevelAction], list[Transition]]:
        world = env.world
        rows = {aid: (self.policies[aid], instance_for(world, aid),
                      env.observe(aid, self.kind))
                for aid in env.agent_ids()}
        samples, log_probs = sample_rows(list(rows.values()), self.rng)
        critic_inputs = {}
        for aid, (_, _, obs) in rows.items():
            prev = env.prev_actions.get(aid, [0.0] * 4)
            critic_inputs[aid] = np.concatenate([obs, np.asarray(prev)])
        values = {aid: policy.forward_critic(instance, critic_inputs[aid],
                                             grad=False).item()
                  for aid, (policy, instance, _) in rows.items()}
        return _transitions(rows, samples, log_probs, values, critic_inputs,
                            episode)


class CTCEDriver(EpisodeActor):
    """One joint network controls the whole team; a single transition per
    env step carries the joint action and the summed team reward."""

    def __init__(self, policy: PolicyNetwork, kind: str,
                 scenario: ScenarioConfig, rng: np.random.Generator,
                 greedy: bool = False):
        self.policy = policy
        self.kind = kind
        self.scenario = scenario
        self.rng = rng
        self.greedy = greedy
        self.slot_obs = OBS_LAYOUTS["escape-AC1" if kind == "escape" else "fight-AC1"]

    def _sample(self, env: CombatEnv):
        """The joint observation, the living slots, and their sampled heads
        and log-probabilities."""
        obs, alive = joint_obs(env.world, self.scenario.n_agents, self.slot_obs,
                               lambda aid: env.observe(aid, self.kind))
        out = self.policy.forward_actor("joint", obs, grad=False)
        samples, log_probs, _ = sample_slots(out.logits, alive, LOW_ACTION_HEADS,
                                             self.rng, self.greedy)
        return obs, alive, samples, log_probs

    def actions(self, env: CombatEnv) -> dict[int, LowLevelAction]:
        _, alive, samples, _ = self._sample(env)
        return {slot: LowLevelAction.from_heads(picked)
                for slot, picked in zip(alive, samples)}

    def act(self, env: CombatEnv, episode: int
            ) -> tuple[dict[int, LowLevelAction], list[Transition]]:
        obs, alive, samples, log_probs = self._sample(env)
        critic_in = build_critic_input(self.kind, env.world, self.scenario,
                                       env.prev_actions,
                                       self.scenario.n_agents,
                                       self.scenario.n_opponents)
        value = self.policy.forward_critic("joint", critic_in, grad=False).item()
        n_heads = len(self.policy.config.instance("joint").head_arities)
        action = np.zeros(n_heads, dtype=int)
        mask = np.zeros(n_heads)
        log_prob = 0.0
        actions: dict[int, LowLevelAction] = {}
        for slot, picked, lp in zip(alive, samples, log_probs):
            head_slice = slice(slot * LOW_ACTION_HEADS, (slot + 1) * LOW_ACTION_HEADS)
            action[head_slice] = picked
            mask[head_slice] = 1.0
            log_prob += float(lp)
            actions[slot] = LowLevelAction.from_heads(picked)
        transition = Transition(
            instance="joint", agent_id=-1, episode=episode, obs=obs,
            action=action, log_prob=log_prob, value=value, reward=0.0,
            done=False, critic_input=critic_in, head_mask=mask)
        return actions, [transition]
