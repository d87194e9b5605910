"""Low-level policy training: single levels, the five-level curriculum with
league opponents, the two-phase escape schedule, and the single-policy
baseline; and `TrainerCore`, the run state and loop that the low-level and
commander trainers share.

Every random draw in a run descends from one master seed (separate spawned
streams for episode generation, action sampling, scripted opponents, and
minibatch shuffling), so single-worker runs with equal seeds produce
identical metrics logs byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..config import ScenarioConfig, ScriptConfig
from ..env import CombatEnv, OUTCOME_WIN, StepResult
from ..nn.networks import PolicyNetwork
from ..nn.params import load_checkpoint, save_arrays, save_checkpoint
from ..rewards import REWARD_VARIANTS, reward_escape, reward_fight, reward_standard
from ..scripted import ScriptedController
from ..simcore import SimConfig, World
from .buffer import RolloutBuffer
from .league import LOW_LEVELS, LeagueArchive
from .policies import (
    CTCEDriver,
    CTDEDriver,
    EpisodeActor,
    SnapshotController,
    lockstep_envs,
    make_low_level_policy,
    play_episodes,
)
from .ppo import PPOConfig, UpdateStats, ppo_update
from .runs import RunDir

CURRICULUM_BASE_HORIZON = 200
CURRICULUM_HORIZON_STEP = 50


@dataclass
class TrainMode:
    """Framework/policy selection for one training run."""

    framework: str = "ctde"  # ctde | ctce | dtde
    kind: str = "fight"  # fight | escape | standard
    reward_variant: str = "base"  # one of REWARD_VARIANTS[kind]
    fc_baseline: bool = False  # CTDE fight: 500-wide MLP, no attention

    def __post_init__(self):
        if self.framework not in ("ctde", "ctce", "dtde"):
            raise ValueError(f"unknown framework {self.framework!r}")
        if self.reward_variant not in REWARD_VARIANTS.get(self.kind, ()):
            raise ValueError(f"no {self.kind!r} policy with reward variant "
                             f"{self.reward_variant!r}")
        if self.fc_baseline and (self.framework, self.kind) != ("ctde", "fight"):
            raise ValueError("fc_baseline replaces the attention network of the "
                             "ctde fight policy only")


def _spawn_seeds(master_seed: int, label: str, count: int) -> list[int]:
    label_key = int.from_bytes(label.encode("utf-8")[:4].ljust(4, b"\0"), "little")
    seq = np.random.SeedSequence([master_seed, label_key])
    return [int(s.generate_state(1)[0]) for s in seq.spawn(count)]


def curriculum_horizon(level: str) -> int:
    return CURRICULUM_BASE_HORIZON + CURRICULUM_HORIZON_STEP * LOW_LEVELS.index(level)


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


class TrainerCore(EpisodeActor):
    """The run state and loop both trainers share: spawned RNG streams, the
    rollout buffer, the step, episode and update counters, the episode
    window each update's metrics record averages, and `config.json`.

    A trainer names its seed label and streams in order (`SEED_LABEL`,
    `STREAMS`; stream `x` is `self.x_rng`), fills `policies` (every network
    by key: the agent id under DTDE, else 0; a network is updated on the
    transitions of its key, the rest go to network 0) and sets `actor` and
    `reward(world, events, agent_id)`, its one reward function.

    A collect (`_play`) starts episodes on the trainer's env slots while
    its closed transitions and the buffer number fewer than `batch_size`
    and its env steps are below its budget, if given; the running episodes
    then finish, so an update's episodes all ran on its weights.
    `play_episodes` drives the core, which forwards the hooks to `actor`
    and keeps a record per episode, by running episode index: its open
    option, length, outcome and return. Once the loop has decided the step,
    a trainer's `_decide(envs, decisions)` gives, per env, the transitions
    of a decision taken at the step, or None. Each decision is an option
    that closes at the next decision or at the end of the episode (a
    low-level decision is a one-step option), and `_close` credits each
    acting agent with `reward` over the events of the steps the option
    flew, on the world as the last of them left it. When the collect ends,
    its episodes reach the buffer, the counters and the episode window in
    episode-index order."""

    SEED_LABEL: str
    STREAMS: tuple[str, ...]
    level: str | None = None  # the metrics record's level by default

    def __init__(self, scenario: ScenarioConfig, ppo: PPOConfig,
                 run_dir: RunDir, seed: int):
        self.scenario = scenario
        self.ppo = ppo
        self.run_dir = run_dir
        self.seed = seed
        self.seeds = dict(zip(self.STREAMS, _spawn_seeds(
            seed, self.SEED_LABEL, len(self.STREAMS))))
        for name, stream_seed in self.seeds.items():
            setattr(self, f"{name}_rng", np.random.default_rng(stream_seed))
        self.policies: dict[int, PolicyNetwork] = {}
        self.buffer = RolloutBuffer()
        self.env_steps = 0
        self.episodes = 0
        self.updates = 0
        self._window: list = []  # episode records since the last update
        self._open = {}  # env -> the record of the episode its slot plays
        self._collect: list = []  # the collect's records, by episode index

    def write_config(self, **extras):
        """The run's `config.json`: scenario, PPO settings, seed, `extras`."""
        self.run_dir.write_config({"scenario": self.scenario.__dict__,
                                   "ppo": self.ppo.__dict__,
                                   "seed": self.seed, **extras})

    # -- the transition recorder ---------------------------------------------

    def _play(self, envs: list[CombatEnv], budget: int | None):
        """One collect on the slots `envs` (see the class docstring), then
        its episodes into the buffer, the counters and the episode window."""
        self._collect = []

        def seed_for(env: CombatEnv, index: int) -> int | None:
            closed = sum(len(record.closed) for record in self._collect)
            steps = sum(record.length for record in self._collect)
            if (closed + len(self.buffer) < self.ppo.batch_size
                    and (budget is None or steps < budget)):
                return int(self.episode_rng.integers(1 << 62))

        for _ in play_episodes(envs, self, seed_for):
            pass
        self.buffer.transitions += [t for r in self._collect for t in r.closed]
        self.env_steps += sum(record.length for record in self._collect)
        self.episodes += len(self._collect)
        self._window += self._collect

    def begin_episode(self, env: CombatEnv):
        self.actor.begin_episode(env)
        self._open[env] = record = SimpleNamespace(
            index=self.episodes + len(self._collect),
            option=[],  # the decision being flown
            steps=0, events=[],  # the steps it has flown and their events
            closed=[],  # transitions of the options flown
            length=0, won=False, ret=0.0)
        self._collect.append(record)

    def actions(self, envs: list[CombatEnv]):
        return self.actor.actions(envs)

    def decided(self, envs: list[CombatEnv], decisions: list):
        for env, transitions in zip(envs, self._decide(envs, decisions)):
            if transitions is not None:
                record = self._open[env]
                self._close(record, env.world, terminal=False)
                record.option = transitions

    def observe_step(self, env: CombatEnv, result: StepResult):
        self.actor.observe_step(env, result)
        record = self._open[env]
        record.steps += 1
        record.length += 1
        record.events += result.events
        if result.terminal:
            self._close(record, env.world, terminal=True)
            record.won = env.outcome == OUTCOME_WIN

    def _close(self, record, world: World, terminal: bool):
        """Closes the decision an episode is flying, in decision order, with
        each transition's reward over the option, its duration and `done`:
        the episode ended or, for one agent's transition, the agent is gone.
        A joint transition's agents are the slots whose heads acted."""
        for t in record.option:
            joint = t.head_mask is not None
            agents = (np.flatnonzero(t.head_mask.reshape(
                          self.scenario.n_agents, -1).any(axis=1)).tolist()
                      if joint else [t.agent_id])
            t.reward += sum(self.reward(world, record.events, aid)
                            for aid in agents)
            t.done = terminal or (not joint and not world.get(t.agent_id).alive)
            t.duration = record.steps
            record.ret += t.reward
            record.closed.append(t)
        record.steps, record.events = 0, []

    def _update_policies(self) -> UpdateStats:
        own: dict[int, list] = {key: [] for key in self.policies}
        for t in self.buffer.transitions:
            own[t.agent_id if t.agent_id in own else 0].append(t)
        stats = UpdateStats()
        for key, policy in self.policies.items():
            if own[key]:
                stats.merge(ppo_update(policy, RolloutBuffer(own[key]),
                                       self.ppo, self.update_rng))
        return stats

    def maybe_update(self, level: str | None = None) -> bool:
        """Updates every network once a batch is full, and logs one metrics
        record, labelled `level` or else the trainer's own."""
        if len(self.buffer) < self.ppo.batch_size:
            return False
        stats = self._update_policies()
        self.buffer.clear()
        self.updates += 1
        self.run_dir.log_metrics({
            "entropy": stats.entropy,
            "env_steps": self.env_steps,
            "episodes": self.episodes,
            "grad_norm": stats.grad_norm,
            "level": self.level if level is None else level,
            "mean_length": _mean([r.length for r in self._window]),
            "mean_ratio_first_epoch": stats.mean_ratio_first_epoch,
            "mean_reward": _mean([r.ret / max(1, self.scenario.n_agents)
                                  for r in self._window]),
            "policy_loss": stats.policy_loss,
            "update": self.updates,
            "value_loss": stats.value_loss,
            "win_rate": _mean([r.won for r in self._window]),
        })
        self._window.clear()
        return True

    def train_for(self, env_steps: int, *episode_args):
        """Runs collects (`run_episode`), updating after each once a batch
        is full, until `env_steps` more env steps have been taken; each
        collect's budget is the steps left."""
        end = self.env_steps + env_steps
        while self.env_steps < end:
            self.run_episode(*episode_args, budget=end - self.env_steps)
            self.maybe_update()


class LowLevelTrainer(TrainerCore):
    """Episode collection + PPO updates for one low-level policy. `policy`,
    the network with key 0, is the one archived. Each `run_episode(env)`
    is one collect over `LOCKSTEP_EPISODES` env slots: `env` and its
    siblings (`lockstep_envs`, built at the first call on `env`). The
    benchmark trains at the default `script` and `sim_cfg`."""

    SEED_LABEL = "trainer"
    STREAMS = ("episode", "action", "opponent", "update")

    def __init__(self, scenario: ScenarioConfig, ppo: PPOConfig, mode: TrainMode,
                 run_dir: RunDir, seed: int,
                 script: ScriptConfig = ScriptConfig(),
                 sim_cfg: SimConfig = SimConfig()):
        super().__init__(scenario, ppo, run_dir, seed)
        self.mode = mode
        self.script = script
        self.sim_cfg = sim_cfg

        self.agent_types = None
        if mode.framework == "dtde":
            # per-agent networks need a fixed id -> airframe assignment
            type_rng = np.random.default_rng(self.seeds["action"] ^ 0xD7DE)
            self.agent_types = ["AC1", "AC2"][:scenario.n_agents] + [
                ("AC1" if type_rng.random() < 0.5 else "AC2")
                for _ in range(scenario.n_agents - 2)]
        policy = make_low_level_policy(mode.kind, mode.framework, scenario, seed,
                                       fc_baseline=mode.fc_baseline,
                                       agent_types=self.agent_types)
        driver = CTCEDriver if mode.framework == "ctce" else CTDEDriver
        self.actor = driver(policy, "escape" if mode.kind == "escape" else "fight",
                            self.action_rng)
        self.policies = policy if isinstance(policy, dict) else {0: policy}
        self.policy = self.policies[0]
        variant, rho = mode.reward_variant, scenario.share_fraction
        self.reward = {
            "fight": partial(reward_fight, variant=variant, rho=rho),
            "escape": partial(reward_escape, variant=variant, scenario=scenario),
            "standard": partial(reward_standard, scenario=scenario)}[mode.kind]
        self.envs: list[CombatEnv] = []  # the last collect's env slots

    # -- environment plumbing -------------------------------------------------

    def make_env(self, opponent_controller, horizon: int | None = None) -> CombatEnv:
        scenario = self.scenario if horizon is None else replace(
            self.scenario, horizon=horizon)
        return CombatEnv(scenario, opponent_controller, self.sim_cfg,
                         agent_types=self.agent_types)

    def run_episode(self, env: CombatEnv, budget: int | None = None):
        """One collect (see `TrainerCore`) on `env` and its siblings."""
        if not self.envs or self.envs[0] is not env:
            self.envs = lockstep_envs(env)
        self._play(self.envs, budget)

    def _decide(self, envs: list[CombatEnv], decisions: list):
        return self.actor.act(envs, decisions,
                              [self._open[env].index for env in envs])

    def train_level(self, level: str, opponent_controller, env_steps: int,
                    horizon: int | None = None):
        self.level = level
        self.train_for(env_steps, self.make_env(opponent_controller, horizon))

    # -- network and optimizer state (curriculum resume) ---------------------

    def save_state(self, path: Path):
        """Every network's weights, Adam moments and Adam step count."""
        arrays, steps = {}, {}
        for key, policy in self.policies.items():
            store = policy.store
            for group, named in (("param", store.state_arrays()),
                                 ("adam.m", store.moment1),
                                 ("adam.v", store.moment2)):
                for name, value in named.items():
                    arrays[f"{key}.{group}.{name}"] = value
            steps[str(key)] = store.step_count
        save_arrays(path, arrays, {"step_count": steps})

    def load_state(self, path: Path):
        """Restore what `save_state` wrote. A file that lacks an array or a
        step count, or holds one of another shape or type, raises a
        ValueError naming it before any network changes."""
        arrays, config = load_checkpoint(path)
        steps = config.get("step_count")
        if not isinstance(steps, dict):
            raise ValueError(f"{path} holds the trainer state of an older "
                             f"format (the first network's Adam moments "
                             f"only); remove it to resume from the archived "
                             f"snapshot")
        missing = sorted({str(key) for key in self.policies} - set(steps))
        if missing:
            raise ValueError(f"{path} holds no state for networks {missing}")
        for key, policy in self.policies.items():
            count = steps[str(key)]
            if type(count) is not int or count < 0:
                raise ValueError(f"{path}: step_count of network {key} is "
                                 f"{count!r}, not a count")
            for group in ("param", "adam.m", "adam.v"):
                for name, tensor in policy.store.params.items():
                    entry = f"{key}.{group}.{name}"
                    if entry not in arrays:
                        raise ValueError(f"{path} holds no {entry}")
                    if arrays[entry].shape != tensor.data.shape:
                        raise ValueError(f"{path}: {entry} has shape "
                                         f"{arrays[entry].shape}, not "
                                         f"{tensor.data.shape}")
        for key, policy in self.policies.items():
            store = policy.store
            store.load_arrays({name: arrays[f"{key}.param.{name}"]
                               for name in store.params}, source=path)
            for name in store.params:
                store.moment1[name][...] = arrays[f"{key}.adam.m.{name}"]
                store.moment2[name][...] = arrays[f"{key}.adam.v.{name}"]
            store.step_count = steps[str(key)]


@dataclass
class LeagueOpponentController:
    """Per-episode sampling of frozen snapshot opponents for league play."""

    archive: LeagueArchive
    below_level: str
    rng: np.random.Generator
    scenario: ScenarioConfig
    cache: dict[str, PolicyNetwork] = field(default_factory=dict)  # by level
    current: SnapshotController | None = field(default=None, init=False)

    def _net(self, level: str) -> PolicyNetwork:
        if level not in self.cache:
            self.cache[level] = self.archive.load("fight", level)
        return self.cache[level]

    def reset(self, world):
        level = self.archive.sample_opponent_level(self.rng, self.below_level)
        self.current = SnapshotController(fight=self._net(level), rng=self.rng,
                                          scenario=self.scenario)
        self.current.reset(world)

    def __call__(self, world, opponent_ids):
        return self.current(world, opponent_ids)


def run_curriculum(scenario: ScenarioConfig, ppo: PPOConfig, mode: TrainMode,
                   run_dir: RunDir, archive: LeagueArchive, seed: int,
                   steps_per_level: dict[str, int] | int,
                   script: ScriptConfig, sim_cfg: SimConfig,
                   levels: tuple[str, ...] = LOW_LEVELS) -> LeagueArchive:
    """Five-level fight curriculum: scripted opponents through L3, the frozen
    L3 snapshot at L4, per-episode league sampling at L5. The episode horizon
    grows by 50 env steps per level from 200. A level starts no episode
    once its `steps_per_level` are taken, and the episodes already running
    finish, so it can run a little past them. Completed levels found in the
    archive are skipped, so interrupted runs resume at level granularity:
    from the run directory's `trainer_state_<level>.ckpt` of the last
    completed level (every network with its Adam moments), or, without one,
    from that level's archived snapshot."""
    if mode.kind != "fight":
        raise ValueError("the curriculum trains the fight policy")
    check_levels(mode, levels)
    trainer = LowLevelTrainer(scenario, ppo, mode, run_dir, seed, script, sim_cfg)
    trainer.write_config(mode=mode.__dict__, levels=list(levels),
                         steps_per_level=steps_per_level)

    resumed_from = None
    for level in levels:
        if archive.has("fight", level):
            resumed_from = level
            continue
        if resumed_from is not None:
            state_path = run_dir.path / f"trainer_state_{resumed_from}.ckpt"
            if state_path.exists():
                trainer.load_state(state_path)
            else:
                snapshot = archive.path("fight", resumed_from)
                trainer.policy.store.load_arrays(load_checkpoint(snapshot)[0],
                                                 source=snapshot)
            resumed_from = None
        steps = (steps_per_level if isinstance(steps_per_level, int)
                 else steps_per_level[level])
        controller = controller_for_level(level, trainer, archive)
        trainer.train_level(level, controller, steps,
                            horizon=curriculum_horizon(level))
        archive.save("fight", level, trainer.policy)
        trainer.save_state(run_dir.path / f"trainer_state_{level}.ckpt")
    return archive


def check_levels(mode: TrainMode, levels) -> None:
    """Rejects DTDE at L4 and L5, before any level trains: the league
    archives network 0, an AC1 agent's, whose ac2 weights never train, and
    at L4 and L5 an archived snapshot flies the opponents' AC2s."""
    if mode.framework == "dtde" and {"L4", "L5"} & set(levels):
        raise ValueError("dtde cannot train L4 or L5: the league archives agent "
                         "0's network, whose ac2 weights never train, and at "
                         "L4 and L5 that snapshot flies the opponents' AC2s")


def controller_for_level(level: str, trainer: LowLevelTrainer,
                          archive: LeagueArchive):
    """A level's opponents, on the trainer's stream, scenario and script."""
    if level in ("L1", "L2", "L3"):
        return ScriptedController(level, trainer.opponent_rng, trainer.script)
    if level == "L4":
        if not archive.has("fight", "L3"):
            raise FileNotFoundError("L4 training requires the archived L3 snapshot")
        return SnapshotController(fight=archive.load("fight", "L3"),
                                  rng=trainer.opponent_rng,
                                  scenario=trainer.scenario)
    if level == "L5":
        return LeagueOpponentController(archive, "L5", trainer.opponent_rng,
                                        trainer.scenario)
    raise ValueError(f"unknown curriculum level {level!r}")


ESCAPE_HORIZON = 300


def train_escape(scenario: ScenarioConfig, ppo: PPOConfig, run_dir: RunDir,
                 archive: LeagueArchive, seed: int,
                 steps_phase1: int, steps_phase2: int, variant: str,
                 script: ScriptConfig, sim_cfg: SimConfig) -> LowLevelTrainer:
    """Escape policy: phase one against scripted L3, phase two against the
    frozen L5 fight snapshot, both at the L3 horizon."""
    if steps_phase2 > 0 and not archive.has("fight", "L5"):
        raise FileNotFoundError("escape phase 2 requires the archived L5 fight policy")
    mode = TrainMode(kind="escape", reward_variant=variant)
    trainer = LowLevelTrainer(scenario, ppo, mode, run_dir, seed, script, sim_cfg)
    trainer.write_config(mode=mode.__dict__, steps_phase1=steps_phase1,
                         steps_phase2=steps_phase2)
    trainer.train_level(
        "escape-L3",
        ScriptedController("L3", trainer.opponent_rng, trainer.script),
        steps_phase1, horizon=ESCAPE_HORIZON)
    if steps_phase2 > 0:
        controller = SnapshotController(fight=archive.load("fight", "L5"),
                                        rng=trainer.opponent_rng,
                                        scenario=scenario)
        trainer.train_level("escape-vs-L5", controller, steps_phase2,
                            horizon=ESCAPE_HORIZON)
    archive.save("escape", "", trainer.policy)
    return trainer


def train_standard_baseline(scenario: ScenarioConfig, ppo: PPOConfig,
                            run_dir: RunDir, seed: int, env_steps: int,
                            script: ScriptConfig, sim_cfg: SimConfig
                            ) -> LowLevelTrainer:
    """Single-policy baseline: one joint CTCE network with the combined
    fight/escape reward, trained directly against scripted L3 at the
    scenario's horizon (no curriculum, no league archive)."""
    mode = TrainMode(framework="ctce", kind="standard")
    trainer = LowLevelTrainer(scenario, ppo, mode, run_dir, seed, script, sim_cfg)
    trainer.write_config(mode=mode.__dict__, env_steps=env_steps)
    trainer.train_level(
        "standard-L3",
        ScriptedController("L3", trainer.opponent_rng, trainer.script),
        env_steps)
    save_checkpoint(run_dir.checkpoint_path("standard"), trainer.policy.store,
                    trainer.policy.config.to_dict())
    return trainer
