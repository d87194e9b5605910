"""Decision drivers: how the networks of each training framework pick
actions and record transitions, and the frozen-snapshot opponent controller.

Decisions come in two shapes. Per agent: `CTDEDriver` gives each living
agent one row, `(network, instance, observation)`. Its `policy` is either
one network whose per-type instances all same-type agents share (CTDE), or
a dict of networks by agent id (DTDE). A shared network's critic judges the
global critic input, which is the same for all of its agents; an agent's own
network judges a local one, its observation and previous action. Jointly:
`joint_decision` runs one network over the team's zero-padded joint
observation and samples every living slot's heads, and `joint_transition`
records that decision as one transition. `CTCEDriver` flies the low-level
team that way, and the Glob commander decides that way.

Decisions are graph-free and batched: each env step runs one actor forward
per (network, instance) over the agents it drives and samples all agents
in one call, in agent-id order, so the action generator draws exactly what
one-agent-at-a-time sampling would. Each driver's `actions(env)` decides
and keeps the decision; `act(env, episode)`, which training uses, turns
that decision into reward-less transitions.

Every episode, in training and in evaluation, runs through `play_episode`,
which steps an `EpisodeActor`.
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
    LOW_ACTION_WIDTH,
    OBS_LAYOUTS,
    build_critic_input,
    build_obs,
    critic_input_width,
)
from ..simcore import TEAM_OPPONENT, World
from .buffer import Transition

LOW_ACTION_HEADS = len(FIGHT_HEADS)


def instance_for(world: World, aircraft_id: int) -> str:
    return world.get(aircraft_id).spec.type_id.lower()


def make_low_level_policy(kind: str, framework: str, scenario: ScenarioConfig,
                          seed: int, fc_baseline: bool = False,
                          agent_types: list[str] | None = None):
    """Networks for one low-level training mode.

    Returns a PolicyNetwork (ctde/ctce), or for dtde a dict of networks by
    agent id, one per entry of `agent_types` (the agents' fixed aircraft
    types), each with a local critic: own observation and previous action.
    """
    obs_kind = "escape" if kind == "escape" else "fight"
    if framework == "dtde":
        if agent_types is None:
            raise ValueError("dtde networks need the agents' fixed aircraft types")
        policies = {}
        for aid, type_id in enumerate(agent_types):
            local_width = OBS_LAYOUTS[f"{obs_kind}-{type_id}"] + LOW_ACTION_WIDTH
            config = (escape_config(local_width) if kind == "escape"
                      else fight_config(local_width))
            policies[aid] = PolicyNetwork(config, seed=seed + 1000 + aid)
        return policies
    global_width = critic_input_width(obs_kind, scenario.n_agents,
                                      scenario.n_opponents)
    if framework == "ctde":
        config = (escape_config(global_width) if kind == "escape"
                  else fight_config(global_width, fc_baseline=fc_baseline))
        return PolicyNetwork(config, seed=seed)
    if framework == "ctce":
        config = ctce_config(
            kind, obs_width=scenario.n_agents * OBS_LAYOUTS[f"{obs_kind}-AC1"],
            head_arities=FIGHT_HEADS * scenario.n_agents,
            critic_width=global_width)
        return PolicyNetwork(config, seed=seed)
    raise ValueError(f"unknown framework {framework!r}")


def low_level_actions(rows: dict[int, tuple[PolicyNetwork, str, np.ndarray]],
                      rng: np.random.Generator, greedy: bool = False
                      ) -> dict[int, LowLevelAction]:
    """One action per aircraft id from its `(policy, instance, obs)` row,
    sampled in the dict's order (see `sample_rows`)."""
    if not rows:
        return {}
    samples, _ = sample_rows(list(rows.values()), rng, greedy)
    return {aid: LowLevelAction.from_heads(s) for aid, s in zip(rows, samples)}


def joint_decision(policy: PolicyNetwork, world: World, n_agents: int,
                   width: int, observe, heads: int, rng: np.random.Generator,
                   greedy: bool = False, hidden: np.ndarray | None = None):
    """One decision of a joint network for the whole team.

    The joint observation holds agent slots 0..n_agents-1, each slot
    `observe(agent_id)` zero-padded to `width`, a destroyed agent's slot all
    zeros. Each living slot samples its `heads` consecutive heads. Returns
    the joint observation, the living slots, their samples [slots, heads]
    and summed log-probabilities, and the network's new hidden state (None
    unless it is recurrent)."""
    obs = np.zeros(n_agents * width)
    alive = [aid for aid in range(n_agents) if world.get(aid).alive]
    for aid in alive:
        vec = observe(aid)
        obs[aid * width: aid * width + len(vec)] = vec
    out = policy.forward_actor("joint", obs, hidden, grad=False)
    samples, log_probs = sample_slots(out.logits, alive, heads, rng, greedy)
    return obs, alive, samples, log_probs, out.hidden


def joint_transition(n_agents: int, alive: list[int], samples: np.ndarray,
                     log_probs: np.ndarray, **fields) -> Transition:
    """The transition of a joint decision (see `joint_decision`): the
    living slots' heads in the team's action vector, the mask of the heads
    that acted, and the summed log-probability; `fields` give the rest
    (episode, obs, value, reward, critic_input, hidden)."""
    width = samples.shape[1]
    action = np.zeros(n_agents * width, dtype=int)
    mask = np.zeros(n_agents * width)
    log_prob = 0.0
    for slot, picked, lp in zip(alive, samples, log_probs):
        action[slot * width:(slot + 1) * width] = picked
        mask[slot * width:(slot + 1) * width] = 1.0
        log_prob += float(lp)
    return Transition(instance="joint", agent_id=-1, action=action,
                      log_prob=log_prob, done=False, head_mask=mask, **fields)


class EpisodeActor:
    """What `play_episode` drives: `actions(env)` once per env step, plus
    hooks at the start of an episode and after each step, empty here."""

    def begin_episode(self, env: CombatEnv):
        pass

    def observe_step(self, env: CombatEnv, result):
        pass


def play_episode(env: CombatEnv, actor: EpisodeActor, seed: int) -> list:
    """The one episode loop: resets `env` from `seed`, starts `actor` on
    it, then steps it on `actor.actions` until the episode ends, passing
    each step's result to `actor.observe_step`. Returns the episode's
    events in order."""
    env.reset(seed=seed)
    actor.begin_episode(env)
    events = []
    while True:
        result = env.step(actor.actions(env))
        actor.observe_step(env, result)
        events += result.events
        if result.terminal:
            return events


@dataclass
class SnapshotController:
    """Opponent controller running frozen fight/escape checkpoints.

    Each opponent carries a fight-or-escape assignment; `reassign` rerolls it
    with the configured fight probability. The option loop
    (`HierarchyEvalActor`) rerolls the env's snapshot controller at each
    option boundary; elsewhere opponents keep the default, fight."""

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
                 ) -> dict[int, LowLevelAction]:
        """Actions of the given opponents, decided together."""
        rows = {}
        for oid in opponent_ids:
            mode = self.assignments.get(oid, "fight" if self.fight else "escape")
            policy = self.fight if mode == "fight" else self.escape
            if policy is None:
                raise RuntimeError(f"no {mode} checkpoint loaded for opponents")
            rows[oid] = (policy, instance_for(world, oid),
                         build_obs(mode, world, oid, self.scenario))
        return low_level_actions(rows, self.rng, self.greedy)


class CTDEDriver(EpisodeActor):
    """Per-agent decisions of a fight or escape policy: one network shared
    per aircraft type (CTDE), or one network per agent id (DTDE). Agents
    observe their attack targets as set on the env."""

    def __init__(self, policy: PolicyNetwork | dict[int, PolicyNetwork],
                 kind: str, rng: np.random.Generator, greedy: bool = False):
        self.policy = policy
        self.kind = kind  # fight | escape
        self.rng = rng
        self.greedy = greedy

    def network(self, agent_id: int) -> PolicyNetwork:
        """The network that decides for `agent_id`."""
        if isinstance(self.policy, dict):
            return self.policy[agent_id]
        return self.policy

    def row(self, env: CombatEnv, agent_id: int
            ) -> tuple[PolicyNetwork, str, np.ndarray]:
        """The decision row of one living agent (see `low_level_actions`)."""
        return (self.network(agent_id), instance_for(env.world, agent_id),
                env.observe(agent_id, self.kind))

    def actions(self, env: CombatEnv) -> dict[int, LowLevelAction]:
        """One action per living agent; keeps the decision, its rows,
        samples and log-probabilities, for `act`."""
        rows = {aid: self.row(env, aid) for aid in env.agent_ids()}
        samples, log_probs = sample_rows(list(rows.values()), self.rng,
                                         self.greedy)
        self.decision = (rows, samples, log_probs)
        return {aid: LowLevelAction.from_heads(s)
                for aid, s in zip(rows, samples)}

    def act(self, env: CombatEnv, episode: int
            ) -> tuple[dict[int, LowLevelAction], list[Transition]]:
        """`actions`, plus one reward-less transition per agent carrying its
        critic input and value."""
        actions = self.actions(env)
        rows, samples, log_probs = self.decision
        critic_inputs, values = self._critic(env, rows)
        return actions, [Transition(
            instance=instance, agent_id=aid, episode=episode, obs=obs,
            action=action, log_prob=float(log_prob), value=values[aid],
            reward=0.0, done=False, critic_input=critic_inputs[aid])
            for (aid, (_, instance, obs)), action, log_prob in zip(
                rows.items(), samples, log_probs)]

    def _critic(self, env: CombatEnv, rows: dict) -> tuple[dict, dict]:
        """Critic input and value by agent id. An agent's own network sees
        its observation and previous action; a shared network sees the
        global critic input, so one value per instance serves its agents."""
        if isinstance(self.policy, dict):
            inputs = {aid: np.concatenate([
                          obs, env.prev_actions.get(aid, [0.0] * LOW_ACTION_WIDTH)])
                      for aid, (_, _, obs) in rows.items()}
            return inputs, {aid: policy.forward_critic(instance, inputs[aid],
                                                       grad=False).item()
                            for aid, (policy, instance, _) in rows.items()}
        critic_in = build_critic_input(self.kind, env.world, env.scenario,
                                       env.prev_actions)
        per_instance = {
            instance: self.policy.forward_critic(instance, critic_in,
                                                 grad=False).item()
            for instance in dict.fromkeys(row[1] for row in rows.values())}
        return (dict.fromkeys(rows, critic_in),
                {aid: per_instance[row[1]] for aid, row in rows.items()})


class CTCEDriver(EpisodeActor):
    """One joint network flies the whole team (see `joint_decision`); a
    training step records a single transition for the team."""

    def __init__(self, policy: PolicyNetwork, kind: str,
                 rng: np.random.Generator, greedy: bool = False):
        self.policy = policy
        self.kind = kind
        self.rng = rng
        self.greedy = greedy
        self.slot_obs = OBS_LAYOUTS["escape-AC1" if kind == "escape" else "fight-AC1"]

    def actions(self, env: CombatEnv) -> dict[int, LowLevelAction]:
        """One action per living slot; keeps the joint decision for `act`."""
        self.decision = joint_decision(
            self.policy, env.world, env.scenario.n_agents, self.slot_obs,
            lambda aid: env.observe(aid, self.kind), LOW_ACTION_HEADS,
            self.rng, self.greedy)
        _, alive, samples, _, _ = self.decision
        return {slot: LowLevelAction.from_heads(picked)
                for slot, picked in zip(alive, samples)}

    def act(self, env: CombatEnv, episode: int
            ) -> tuple[dict[int, LowLevelAction], list[Transition]]:
        """`actions`, plus the team's one reward-less transition."""
        actions = self.actions(env)
        obs, alive, samples, log_probs, _ = self.decision
        critic_in = build_critic_input(self.kind, env.world, env.scenario,
                                       env.prev_actions)
        value = self.policy.forward_critic("joint", critic_in, grad=False).item()
        return actions, [joint_transition(
            env.scenario.n_agents, alive, samples, log_probs, episode=episode,
            obs=obs, value=value, reward=0.0, critic_input=critic_in)]
