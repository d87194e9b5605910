"""Decision drivers: how the networks of each training framework pick
actions and record transitions, and the frozen-snapshot opponent controller.

Decisions come in two shapes. Per agent: `CTDEDriver` gives each living
agent one row, `(network, instance, observation)`. Its `policy` is either
one network whose per-type instances all same-type agents share (CTDE), or
a dict of networks by agent id (DTDE). A shared network's critic judges the
global critic input, which is the same for all of its agents; an agent's own
network judges a local one, its observation and previous action. Jointly:
one network reads the team's zero-padded joint observation (`joint_obs`)
and every living slot samples its own heads. `CTCEDriver`, a `CTDEDriver`
whose one row is joint, flies the low-level team that way, and the Glob
commander decides that way.

Every episode, in training and in evaluation, runs through `play_episodes`
over E env slots in lockstep (an env and its siblings, `lockstep_envs`),
each slot taking the next episode when its own ends. At each lockstep step
every network-driven aircraft of both teams in every busy slot is decided
in one `decide` call: one graph-free forward per (network, instance) and
one sampling call. A driver's `actions(envs)`
returns each env's `Decision`; the loop decides them and hands them back
through `decided(envs, decisions)`. In training, `act(envs, decisions,
episodes)` turns them into reward-less transitions (`decision_transitions`,
the one builder of every transition, commander ones included) whose values
`set_values` gives, one critic forward per (network, instance).

Random streams: each decision-maker spawns an episode stream from its own
generator when an episode begins (`episode_stream`), and every draw within
the episode comes from that stream. Episodes begin in episode-index order
whatever E is, so the outcome of each episode does not depend on E.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator
from weakref import WeakKeyDictionary

import numpy as np

from ..config import ScenarioConfig
from ..env import CombatEnv, LowLevelAction, episode_stream
from ..nn.networks import (
    Decision,
    PolicyNetwork,
    ctce_config,
    decide,
    escape_config,
    fight_config,
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
# env slots a training collect or an `evaluate` call plays in lockstep
LOCKSTEP_EPISODES = 8


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


def joint_obs(world: World, n_agents: int, width: int, observe
              ) -> tuple[np.ndarray, list[int]]:
    """A joint network's observation of the team and its living slots.
    Agent slots 0..n_agents-1 each hold `observe(agent_id)` zero-padded to
    `width`; a destroyed agent's slot is all zeros."""
    obs = np.zeros(n_agents * width)
    alive = [aid for aid in range(n_agents) if world.get(aid).alive]
    for aid in alive:
        vec = observe(aid)
        obs[aid * width: aid * width + len(vec)] = vec
    return obs, alive


def decision_transitions(d: Decision, episode: int, critic_inputs: list,
                         rewards: list[float]) -> list[Transition]:
    """The transitions of a decided `Decision`, valued 0 (see `set_values`)
    and rewarded with `rewards`, one per acting id; the option's reward is
    added when it closes. A per-row decision gives one transition per
    sampled row, with its critic input and, from a recurrent network, its
    hidden state. A joint decision gives one team transition: the acting
    slots' heads in the team's action vector, the mask of the heads that
    acted, the summed log-probability and reward, and the first critic
    input."""
    if not d.slot_heads:
        return [Transition(
            instance=instance, agent_id=aid, episode=episode, obs=obs,
            action=action, log_prob=float(log_prob), value=0.0, reward=reward,
            done=False, critic_input=critic_in,
            hidden=None if d.hidden is None else d.hidden[i:i + 1])
            for i, (aid, (_, instance, obs), action, log_prob, critic_in, reward)
            in enumerate(zip(d.ids, d.rows, d.samples, d.log_probs,
                             critic_inputs, rewards))]
    ((policy, instance, obs),) = d.rows
    heads = len(policy.config.instance(instance).head_arities)
    action = np.zeros(heads, dtype=int)
    mask = np.zeros(heads)
    for slot, picked in zip(d.ids, d.samples):
        span = slice(slot * d.slot_heads, (slot + 1) * d.slot_heads)
        action[span], mask[span] = picked, 1.0
    return [Transition(
        instance=instance, agent_id=-1, episode=episode, obs=obs, action=action,
        log_prob=sum(d.log_probs.tolist()), value=0.0, reward=sum(rewards),
        done=False, critic_input=critic_inputs[0], hidden=d.hidden,
        head_mask=mask)]


def lockstep_envs(env: CombatEnv, count: int = LOCKSTEP_EPISODES
                  ) -> list[CombatEnv]:
    """`env` and `count - 1` siblings to play in lockstep with it: the same
    scenario, simulator settings and agent types, each with a fresh opponent
    controller that `dataclasses.replace` builds from the fields of `env`'s
    (its generator among them, so episode streams spawn in episode order)."""
    return [env] + [CombatEnv(env.scenario, replace(env.opponent_controller),
                              env.sim_cfg, agent_types=env.agent_types)
                    for _ in range(count - 1)]


def set_values(transitions: list[Transition], network) -> None:
    """Sets each transition's value: `network(t)` judges `t.critic_input`,
    in one graph-free critic forward per (network, instance). Transitions
    holding the same critic-input array share its forward row."""
    groups: dict[tuple, dict] = {}
    for t in transitions:
        groups.setdefault((network(t), t.instance), {}).setdefault(
            id(t.critic_input), t.critic_input)
    values = {}
    for (policy, instance), inputs in groups.items():
        out = policy.forward_critic(instance, np.stack(list(inputs.values())),
                                    grad=False)
        values.update(zip([(policy, instance, key) for key in inputs],
                          out[:, 0].tolist()))
    for t in transitions:
        t.value = values[network(t), t.instance, id(t.critic_input)]


class EpisodeActor:
    """What `play_episodes` drives: `actions(envs)` once per lockstep step,
    giving each env's `Decision` for its agents (or their actions, when no
    network decides them); `decided(envs, decisions)` with those, once they
    are decided and before the envs step; and hooks at the start of an
    episode and after each step. The hooks are empty here."""

    def begin_episode(self, env: CombatEnv):
        pass

    def decided(self, envs: list[CombatEnv], decisions: list):
        pass

    def observe_step(self, env: CombatEnv, result):
        pass


def low_level_actions(decided) -> dict[int, LowLevelAction]:
    """The actions of a decided `Decision`, by aircraft id, or `decided`
    itself when it already holds actions."""
    if not isinstance(decided, Decision):
        return decided
    return {aid: LowLevelAction.from_heads(s)
            for aid, s in zip(decided.ids, decided.samples)}


def play_episodes(envs: list[CombatEnv], actor: EpisodeActor,
                  seed_for: Callable[[CombatEnv, int], int | None]
                  ) -> Iterator[tuple[int, CombatEnv, list]]:
    """The one episode loop: a queue of episodes over the env slots `envs`
    in lockstep, numbered in the order they begin. Each free slot, in slot
    order, asks `seed_for(env, index)` for the next episode's seed, resets
    from it and starts `actor` on it; once it gives None, no slot starts
    another. Every busy slot then steps: `actor` gives its agents'
    decisions and the env's opponent controller (every env has one) those
    of its living opponents, decided in one `decide` call before any env
    steps; `actor` is handed its decided ones, each env steps on both
    teams' actions and `actor` observes the result. Yields `(index, env,
    events)` as an episode ends, before its slot starts the next."""
    playing: list[int | None] = [None] * len(envs)  # slot -> its episode
    events: list[list] = [[] for _ in envs]
    free, started, wanted = list(range(len(envs))), 0, True
    while True:
        for k in free:
            seed = seed_for(envs[k], started) if wanted else None
            if seed is None:
                wanted = False
                continue
            envs[k].reset(seed=seed)
            actor.begin_episode(envs[k])
            playing[k], events[k] = started, []
            started += 1
        live = [k for k, episode in enumerate(playing) if episode is not None]
        if not live:
            return
        stepping = [envs[k] for k in live]
        agents = actor.actions(stepping)
        opponents = [env.opponent_controller(env.world, env.opponent_ids())
                     for env in stepping]
        decide([d for d in agents + opponents if isinstance(d, Decision)])
        actor.decided(stepping, agents)
        free = []
        for k, env, own, theirs in zip(live, stepping, agents, opponents):
            result = env.step(low_level_actions(own), low_level_actions(theirs))
            actor.observe_step(env, result)
            events[k] += result.events
            if result.terminal:
                free.append(k)
        for k in free:
            yield playing[k], envs[k], events[k]
            playing[k] = None


@dataclass
class SnapshotController:
    """Opponent controller running frozen fight/escape checkpoints.

    Each opponent carries a fight-or-escape assignment; `reassign` rerolls it
    with the configured fight probability. The option loop
    (`HierarchyEvalActor`) rerolls the env's snapshot controller at each
    option boundary; elsewhere opponents keep the default, fight. `reset`
    starts an episode: no assignments, and a new episode stream from `rng`
    for the rerolls and samples. Only `reset` sets the stream."""

    fight: PolicyNetwork | None
    rng: np.random.Generator
    scenario: ScenarioConfig
    escape: PolicyNetwork | None = None
    fight_prob: float = 1.0
    greedy: bool = False
    assignments: dict[int, str] = field(default_factory=dict, init=False)
    stream: np.random.Generator = field(init=False)

    def reset(self, world: World):
        self.assignments = {}
        self.stream = episode_stream(self.rng)

    def reassign(self, world: World):
        for opp in world.alive(TEAM_OPPONENT):
            fight = self.stream.random() < self.fight_prob
            self.assignments[opp.id] = "fight" if fight and self.fight else "escape"

    def __call__(self, world: World, opponent_ids: list[int]) -> Decision:
        """The decision of the given opponents, made together."""
        rows = []
        for oid in opponent_ids:
            mode = self.assignments.get(oid, "fight" if self.fight else "escape")
            policy = self.fight if mode == "fight" else self.escape
            if policy is None:
                raise RuntimeError(f"no {mode} checkpoint loaded for opponents")
            rows.append((policy, instance_for(world, oid),
                         build_obs(mode, world, oid, self.scenario)))
        return Decision(rows, list(opponent_ids),
                        None if self.greedy else self.stream)


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
        self.streams = WeakKeyDictionary()  # env -> its episode's stream

    def network(self, agent_id: int) -> PolicyNetwork:
        """The network that decides for `agent_id`."""
        if isinstance(self.policy, dict):
            return self.policy[agent_id]
        return self.policy

    def row(self, env: CombatEnv, agent_id: int
            ) -> tuple[PolicyNetwork, str, np.ndarray]:
        """The decision row of one living agent (see `Decision`)."""
        return (self.network(agent_id), instance_for(env.world, agent_id),
                env.observe(agent_id, self.kind))

    def begin_episode(self, env: CombatEnv):
        self.streams[env] = episode_stream(self.rng)

    def actions(self, envs: list[CombatEnv]) -> list[Decision]:
        """One row per living agent of each env."""
        decisions = []
        for env in envs:
            ids = env.agent_ids()
            decisions.append(Decision([self.row(env, aid) for aid in ids], ids,
                                      None if self.greedy else self.streams[env]))
        return decisions

    def act(self, envs: list[CombatEnv], decisions: list[Decision],
            episodes: list[int]) -> list[list[Transition]]:
        """Each env's reward-less transitions of its decided step, with
        their critic inputs and values. An agent's own network judges its
        observation and previous action; a shared network judges the env's
        global critic input, so one value per instance serves its agents."""
        out = []
        for env, d, episode in zip(envs, decisions, episodes):
            if isinstance(self.policy, dict):
                inputs = [np.concatenate([
                              obs, env.prev_actions.get(aid, [0.0] * LOW_ACTION_WIDTH)])
                          for aid, (_, _, obs) in zip(d.ids, d.rows)]
            else:
                inputs = [build_critic_input(self.kind, env.world, env.scenario,
                                             env.prev_actions,
                                             self._critic_observations(env, d))
                          ] * len(d.ids)
            out.append(decision_transitions(d, episode, inputs,
                                            [0.0] * len(d.ids)))
        set_values([t for ts in out for t in ts],
                   lambda t: self.network(t.agent_id))
        return out

    @staticmethod
    def _critic_observations(env: CombatEnv, d: Decision) -> dict:
        """The row observations of `d` that equal the critic's: those of
        per-aircraft rows whose agent has no attack target."""
        if d.slot_heads:
            return {}
        return {aid: obs for aid, (_, _, obs) in zip(d.ids, d.rows)
                if env.attack_targets.get(aid) is None}


class CTCEDriver(CTDEDriver):
    """One joint network flies the whole team (see `joint_obs`); a training
    step records a single transition for the team, judged on the global
    critic input."""

    def actions(self, envs: list[CombatEnv]) -> list[Decision]:
        """Each env's joint decision of its living slots."""
        decisions = []
        for env in envs:
            obs, alive = joint_obs(env.world, env.scenario.n_agents,
                                   OBS_LAYOUTS[f"{self.kind}-AC1"],
                                   lambda aid: env.observe(aid, self.kind))
            decisions.append(Decision([(self.policy, "joint", obs)], alive,
                                      None if self.greedy else self.streams[env],
                                      slot_heads=LOW_ACTION_HEADS))
        return decisions
